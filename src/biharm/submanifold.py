"""Extrinsic geometry of an immersed submanifold, computed from jets.

Every derivative comes from jet arithmetic: the immersion components are
evaluated as order-4 jets of the parameters, frames and fundamental forms
are assembled in jet arithmetic, and the normal-bundle quantities needed by
the biharmonicity equations (nabla-perp H, its rough Laplacian, grad |H|^2,
the curvature-style traces) fall out as exact point values.  Finite
differences appear only inside the independent cross-check oracle
:func:`fd_normal_laplacian`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ambient import (
    AmbientModel,
    GeometryError,
    PointAmbient,
    christoffel_point,
    christoffel_symbols,
    curvature_parts,  # noqa: F401
    metric_at,  # noqa: F401
    scalar_from_metric_jets,
    tangent_projector,
)
from .exprs import Bindings, CompiledFields, Expr, evaluate_jet_env  # noqa: F401
from .jets import DomainError, Jet, embed, extract, jet_matrix_inverse, seed_point, stack

# metric_at, curvature_parts and evaluate_jet_env are imported for
# bench/tracing.py, which wraps them in this module's namespace; the ambient
# tensors at a sample come with its PointGeometry (``ambient``, one snapshot
# per sample), and expressions run as compiled programs.

RANK_TOL = 1e-8


@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    samples: int
    periodic: bool = False


@dataclass
class ImmersionModel(CompiledFields):
    """A parametrized immersion; its ``components`` compile to one program
    on first use (see :class:`CompiledFields`)."""

    name: str
    dim: int
    params: tuple[str, ...]
    components: tuple[Expr, ...]
    domain: tuple[Axis, ...]
    bindings: Bindings = field(default_factory=dict)

    def grid(self):
        """Sample points, row-major over axes; periodic axes drop the endpoint."""
        axes = []
        for ax in self.domain:
            if ax.periodic:
                axes.append(np.linspace(ax.lo, ax.hi, ax.samples, endpoint=False))
            else:
                axes.append(np.linspace(ax.lo, ax.hi, ax.samples))
        mesh = np.meshgrid(*axes, indexing="ij")
        return [tuple(float(m[idx]) for m in mesh) for idx in np.ndindex(*mesh[0].shape)]


# -- jet-level linear algebra over a metric backend ---------------------------
#
# Fields are jet arrays: a batch of vector fields has shape (..., d), so an
# inner product, a covariant derivative or a projection of the whole batch is
# a few jet products plus an axis sum.


class _ChartCalc:
    """Covariant calculus along the immersion for a chart ambient."""

    def __init__(self, space, pos):
        m, d, order = pos.nvars, space.dim, pos.order
        self.space, self.m, self.d = space, m, d
        aug = embed(pos, m + d) + stack([Jet.variable(m + d, order, m + a, 0.0)
                                         for a in range(d)])
        g_aug = space.jets("metric", list(aug))
        self.g = extract(g_aug, m, order)
        if np.linalg.eigvalsh(self.g.value).min() <= 0.0:
            raise GeometryError("ambient metric not positive definite along immersion")
        dg = stack([extract(g_aug, m, order - 1, extra=m + c) for c in range(d)])
        gamma = christoffel_symbols(jet_matrix_inverse(self.g.truncate(order - 1)), dg)
        self.T = pos.gradient()
        # precontracted Gamma(T_q, .)[q, c, b]: covd then costs d^2 products, not d^3
        self.gamma_t = (gamma[None] * self.T[:, None, :, None]).sum(2)

    def inner(self, v, w):
        """g(v, w) over broadcast batches; put the smaller batch in ``v``."""
        return ((self.g * v[..., :, None]).sum(-2) * w).sum(-1)

    def covd(self, v):
        """Ambient covariant derivatives (m, ...) of the fields ``v`` along every parameter."""
        gt = self.gamma_t[(slice(None),) + (None,) * (len(v.shape) - 1)]
        return v.gradient() + (gt * v[None, ..., None, :]).sum(-1)

    def frame_candidates(self):
        return Jet.constant(self.m, self.T.order, np.eye(self.d))


class _EmbeddedCalc:
    """Covariant calculus via Euclidean derivatives and tangential projection."""

    def __init__(self, space, pos):
        self.space, self.m, self.d = space, pos.nvars, space.rep_dim
        self.T = pos.gradient()
        n = space.jets("normals", list(pos))
        self.normals = n * self.inner(n, n).powr(-0.5)[:, None]

    def inner(self, v, w):
        return (v * w).sum(-1)

    def project(self, v):
        dots = self.inner(v[..., None, :], self.normals)
        return v - (dots[..., None] * self.normals).sum(-2)

    def covd(self, v):
        return self.project(v.gradient())

    def frame_candidates(self):
        return self.project(Jet.constant(self.m, self.T.order, np.eye(self.d)))


def _make_calc(space, pos):
    return _ChartCalc(space, pos) if space.backend == "chart" else _EmbeddedCalc(space, pos)


# -- frames --------------------------------------------------------------------


def _orthonormal_tangent(calc, T):
    """Gram-Schmidt on the coordinate tangent fields, tracking coefficients."""
    m = T.shape[0]
    eye = Jet.constant(calc.m, T.order, np.eye(m))
    frames, coeffs = [], []
    for i in range(m):
        v, c = T[i], eye[i]
        for Xj, cj in zip(frames, coeffs):
            dot = calc.inner(Xj, v)
            v = v - dot * Xj
            c = c - dot * cj
        n2 = calc.inner(v, v)
        if n2.value <= RANK_TOL**2:
            raise GeometryError(f"immersion differential rank-deficient (direction {i + 1})")
        inv = n2.powr(-0.5)
        frames.append(inv * v)
        coeffs.append(inv * c)
    return stack(frames), stack(coeffs)


def _complete_normal(calc, frames, need):
    """Pivoted Gram-Schmidt completion of the tangent frame to a normal frame."""
    reduced = calc.frame_candidates()
    for X in frames:
        reduced = reduced - calc.inner(X, reduced)[:, None] * X
    normals, used = [], set()
    while len(normals) < need:
        v = reduced
        for N in normals:
            v = v - calc.inner(N, v)[:, None] * N
        n2 = calc.inner(v, v)
        nv = n2.value
        best, best_norm = None, -1.0
        for idx in range(len(nv)):
            # strict improvement; ties keep lowest index
            if idx not in used and nv[idx] > best_norm + 1e-14:
                best, best_norm = idx, nv[idx]
        if best is None or best_norm <= RANK_TOL**2:
            raise GeometryError("could not complete an orthonormal normal frame")
        used.add(best)
        normals.append(n2[best].powr(-0.5) * v[best])
    return stack(normals)


# -- public data ---------------------------------------------------------------


@dataclass
class PointGeometry:
    u: tuple
    position: np.ndarray
    tangent_frame: np.ndarray        # rows are orthonormal tangent vectors
    normal_frame: np.ndarray         # rows are orthonormal normal vectors
    induced_metric: np.ndarray       # coordinate-basis first fundamental form
    ambient_metric: np.ndarray       # ambient metric at the position (identity if embedded)
    ambient: PointAmbient = field(repr=False)  # ambient tensors at the position, on first use
    second_fundamental: np.ndarray   # [normal, i, j] frame components of B
    mean_curvature: np.ndarray       # ambient-representation vector
    mean_curvature_norm: float
    second_fundamental_norm2: float
    m: int
    order: int
    _state: dict = field(repr=False, default_factory=dict)

    @property
    def mean_normal_components(self) -> np.ndarray:
        return self._state["h_normal"]


@dataclass
class NormalFieldDerivatives:
    nabla_norm: float                # max_i |nabla-perp_{X_i} H|
    laplacian: np.ndarray            # rough Laplacian of H in the normal bundle
    grad_h2: np.ndarray              # tangent vector grad |H|^2
    trace_shape_mean: np.ndarray     # sum_i B(X_i, A_H X_i)
    trace_shape_gradient: np.ndarray # sum_i A_{nabla-perp_{X_i} H}(X_i)


def point_geometry(space: AmbientModel, imm: ImmersionModel, u, order: int = 4) -> PointGeometry:
    """Frames, fundamental forms and mean curvature at one parameter point."""
    m = imm.dim
    pos = imm.jets("components", seed_point(u, order))
    calc = _make_calc(space, pos)
    T = calc.T
    g_ind = calc.inner(T[:, None], T[None])
    gram = g_ind.value
    if not np.isfinite(gram).all():
        raise DomainError(f"non-finite induced metric at {tuple(u)}")
    if np.linalg.eigvalsh(gram).min() <= RANK_TOL**2:
        raise GeometryError(f"immersion differential rank-deficient at {tuple(u)}")

    frames, coeffs = _orthonormal_tangent(calc, T)
    codim = space.dim - m
    normals = _complete_normal(calc, frames, codim)

    # nabla_{X_i} X_j = sum_q coeffs[i, q] nabla_{d_q} X_j
    nablaXX = (coeffs[:, :, None, None] * calc.covd(frames)[None]).sum(1)
    b = calc.inner(normals[:, None, None], nablaXX[None])

    # mean curvature field H = (1/m) sum_i B(X_i, X_i), as jets
    diag = np.arange(m)
    h_n = b[:, diag, diag].sum(-1) * (1.0 / m)
    H = (h_n[:, None] * normals).sum(0)

    # deterministic hypersurface orientation: <H, nu> >= 0, else first
    # nonvanishing component positive
    if codim == 1:
        s = calc.inner(H, normals[0]).value
        flip = False
        if s < -1e-12:
            flip = True
        elif abs(s) <= 1e-12:
            for comp in normals[0].value:
                if abs(comp) > 1e-12:
                    flip = comp < 0.0
                    break
        if flip:
            normals, b, h_n = -normals, -b, -h_n

    b_vals = b.value
    h_n_vals = h_n.value
    position = pos.value
    state = {
        "calc": calc,
        "pos": pos,
        "frames": frames,
        "coeffs": coeffs,
        "normals": normals,
        "nablaXX": nablaXX,
        "H": H,
        "g_ind": g_ind,
        "h_normal": h_n_vals,
    }
    return PointGeometry(
        u=tuple(float(v) for v in u),
        position=position,
        tangent_frame=frames.value,
        normal_frame=normals.value,
        induced_metric=gram,
        ambient_metric=calc.g.value if space.backend == "chart" else np.eye(calc.d),
        ambient=PointAmbient(space, position),
        second_fundamental=b_vals,
        mean_curvature=H.value,
        mean_curvature_norm=float(np.sqrt((h_n_vals**2).sum())),
        second_fundamental_norm2=float((b_vals**2).sum()),
        m=m,
        order=order,
        _state=state,
    )


def normal_derivatives(pg: PointGeometry) -> NormalFieldDerivatives:
    """Normal-connection derivatives of the mean curvature field at the point."""
    if pg.order < 4:
        raise GeometryError("normal derivatives need immersion jets of order 4")
    st = pg._state
    calc, frames, coeffs, normals = st["calc"], st["frames"], st["coeffs"], st["normals"]
    H, m = st["H"], pg.m

    DH = (coeffs[:, :, None] * calc.covd(H)[None]).sum(1)
    w = calc.inner(normals[:, None], DH[None])
    W = (w[:, :, None] * normals[:, None]).sum(0)

    w_vals = w.value
    nabla_norm = float(np.sqrt((w_vals**2).sum(axis=0)).max()) if m else 0.0

    # rough Laplacian: sum_i nabla-perp_{X_i} nabla-perp_{X_i} H
    #                  - nabla-perp over the induced-connection drift
    cvals = coeffs.value
    cov_w = calc.covd(W).value
    diag = np.arange(m)
    drift = calc.inner(st["nablaXX"][diag, diag][:, None], frames[None]).value
    w_field = W.value
    lap = np.zeros(calc.d)
    for i in range(m):
        lap += _project_normal(pg, cvals[i] @ cov_w[:, i])
        lap -= drift[i] @ w_field

    # grad |H|^2 from the scalar jet <H, H>
    grad = (cvals @ calc.inner(H, H).gradient().value) @ pg.tangent_frame

    bv = pg.second_fundamental
    hn = pg.mean_normal_components
    trace_mean = np.einsum("aij,a,bij->b", bv, hn, bv) @ pg.normal_frame
    trace_grad = np.einsum("aij,ai->j", bv, w_vals) @ pg.tangent_frame

    return NormalFieldDerivatives(
        nabla_norm=nabla_norm,
        laplacian=lap,
        grad_h2=grad,
        trace_shape_mean=trace_mean,
        trace_shape_gradient=trace_grad,
    )


def _project_normal(pg, vec):
    g = pg.ambient_metric
    out = np.zeros_like(vec)
    for nu in pg.normal_frame:
        out += (nu @ g @ vec) * nu
    return out


def project_tangent(pg, vec):
    g = pg.ambient_metric
    out = np.zeros_like(vec)
    for X in pg.tangent_frame:
        out += (X @ g @ vec) * X
    return out


def scalar_curvature(space: AmbientModel, pg: PointGeometry):
    """(intrinsic, via_gauss) scalar curvature of the induced metric.

    ``intrinsic`` comes from the induced metric's own Christoffel jets;
    ``via_gauss`` contracts the ambient algebraic curvature over the tangent
    frame and adds m^2 |H|^2 - |B|^2.  Their agreement is the Gauss-equation
    consistency check.
    """
    g_ind = pg._state["g_ind"]
    m = pg.m
    intrinsic = 0.0 if m == 1 else scalar_from_metric_jets(g_ind)
    amb = 0.0
    g = pg.ambient_metric
    for i in range(m):
        for j in range(m):
            R = pg.ambient.curvature_parts(pg.tangent_frame[i], pg.tangent_frame[j],
                                           pg.tangent_frame[j])["combined"]
            amb += pg.tangent_frame[i] @ g @ R
    via_gauss = amb + m * m * pg.mean_curvature_norm**2 - pg.second_fundamental_norm2
    return float(intrinsic), float(via_gauss)


def pseudo_umbilical_check(pg: PointGeometry, tol: float = 1e-8):
    """Deviation of A_H from |H|^2 Id; (None, None) at minimal points."""
    if pg.mean_curvature_norm <= tol:
        return None, None
    hn = pg.mean_normal_components
    a_h = np.einsum("a,aij->ij", hn, pg.second_fundamental)
    dev = float(np.linalg.norm(a_h - pg.mean_curvature_norm**2 * np.eye(pg.m)))
    return dev < tol, dev


# -- finite-difference oracle ----------------------------------------------------


def _mean_curvature_point(space, imm, u):
    pg = point_geometry(space, imm, u, order=2)
    return pg, pg.mean_curvature


def _covd_pointwise(space, pos, dpos_q, vec_val, dvec_q):
    """Ambient covariant derivative from point values and plain derivatives."""
    if space.backend == "chart":
        gam = christoffel_point(space, pos)
        return dvec_q + np.einsum("cab,a,b->c", gam, dpos_q, vec_val)
    P = tangent_projector(space, pos)
    return P @ dvec_q


def fd_normal_laplacian(space: AmbientModel, imm: ImmersionModel, u, h: float) -> np.ndarray:
    """Second-order central-difference evaluation of the normal rough Laplacian.

    Differences the mean-curvature field over the parameter grid; all
    pointwise data (frames, connection, induced metric) are evaluated
    exactly, so the h^2 truncation error of the differencing is what a
    convergence study observes.
    """
    u = np.asarray(u, dtype=float)
    m = imm.dim

    def H_at(v):
        return _mean_curvature_point(space, imm, v)[1]

    def W_at(v, q):
        # nabla-perp_{d_q} H by one central difference around v
        vp, vm = v.copy(), v.copy()
        vp[q] += h
        vm[q] -= h
        dH = (H_at(vp) - H_at(vm)) / (2.0 * h)
        pg, Hv = _mean_curvature_point(space, imm, v)
        dpos = pg._state["pos"].derivative(q).value
        cov = _covd_pointwise(space, pg.position, dpos, Hv, dH)
        return _project_normal(pg, cov)

    pg0, _ = _mean_curvature_point(space, imm, u)
    ginv = np.linalg.inv(pg0.induced_metric)
    dg = pg0._state["g_ind"].gradient().value  # dg[p, a, b] = d_p g_ab
    low = 0.5 * (dg.transpose(2, 1, 0) + dg.transpose(2, 0, 1) - dg)
    gamma_ind = np.einsum("ce,eab->cab", ginv, low)

    lap = np.zeros(space.rep_dim)
    W0 = [W_at(u, q) for q in range(m)]
    for p in range(m):
        for q in range(m):
            up, um = u.copy(), u.copy()
            up[p] += h
            um[p] -= h
            dW = (W_at(up, q) - W_at(um, q)) / (2.0 * h)
            dpos = pg0._state["pos"].derivative(p).value
            cov = _covd_pointwise(space, pg0.position, dpos, W0[q], dW)
            term = _project_normal(pg0, cov)
            term = term - np.einsum("r,rc->c", gamma_ind[:, p, q], np.array(W0))
            lap += ginv[p, q] * term
    return lap
