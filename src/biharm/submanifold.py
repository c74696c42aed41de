"""Extrinsic geometry of an immersed submanifold, computed from jets.

Every derivative comes from jet arithmetic: the immersion components are
evaluated as order-4 jets of the parameters, frames and fundamental forms
are assembled in jet arithmetic, and the normal-bundle quantities needed by
the biharmonicity equations (nabla-perp H, its rough Laplacian, grad |H|^2,
the curvature-style traces) fall out as exact point values.  A stage runs
one order lower per derivative still to be taken of it (at seed order k,
frames at k - 1, H and the diagonal of B at k - 2, B off its diagonal at
order 0); truncation changes no bit.  Finite differences appear only inside
the independent cross-check oracle :func:`fd_normal_laplacian`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ambient import (
    AmbientModel,
    RANK_TOL,
    GeometryError,
    PointAmbient,
    christoffel_from_metric_jets,
    christoffel_point,
    christoffel_symbols,
    curvature_parts,  # noqa: F401
    mat_vec,
    metric_at,  # noqa: F401
    norm,
    objects,
    orthonormal_normals,
    scalar_from_christoffel,
    scalar_from_metric_jets,  # noqa: F401
    tangent_projector,
    vec_mat,
)
from .exprs import Bindings, CompiledFields, Expr, evaluate_jet_env  # noqa: F401
from .jets import (
    DomainError,
    Jet,
    _space,
    embed,
    extract,
    jet_matrix_inverse,
    n_entries,
    seed_point,
    stack,
)

# metric_at, curvature_parts, scalar_from_metric_jets and evaluate_jet_env
# are imported for bench/tracing.py, which wraps them in this module's
# namespace; the ambient tensors at the samples come with their
# PointGeometry (``ambient``, one snapshot per block), the intrinsic
# curvature comes from Christoffel values, and expressions run as compiled
# programs.

PSEUDO_UMBILICAL_TOL = 1e-8   # |A_H - |H|^2 Id|, and the |H| of a minimal point
# the seed order of the immersion jets that the normal Laplacian of H needs: it
# takes two derivatives of H, itself second derivatives of the immersion; a
# higher order gives the same values, only slower
JET_ORDER = 4


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
        axes = [np.linspace(ax.lo, ax.hi, ax.samples, endpoint=not ax.periodic)
                for ax in self.domain]
        mesh = np.meshgrid(*axes, indexing="ij")
        return [tuple(float(m[idx]) for m in mesh) for idx in np.ndindex(*mesh[0].shape)]


# -- jet-level linear algebra over a metric backend ---------------------------
#
# Fields are jet arrays with the sample axes S in front: a batch of vector
# fields has shape S + (..., d), so an inner product, a covariant derivative
# or a projection of the whole batch is a few jet products plus an axis sum.
# The per-sample tensors of a calculus (metric, connection, normals) are
# lifted over a field's own axes by ``_lift``.


def _lift(x, nb: int, k: int):
    """``x`` with ``k`` singleton axes inserted after its ``nb`` leading
    axes; with none, numpy's right-aligned broadcasting already lines up."""
    return x[(slice(None),) * nb + (None,) * k] if nb and k else x


class _Calc:
    """Covariant calculus along the immersion at the samples of ``pos``
    (shape S + (d,))."""

    def __init__(self, space, pos):
        self.space, self.m, self.nb = space, pos.nvars, len(pos.shape) - 1
        self.T = pos.gradient(axis=-2)

    def _rank(self, v):
        """Field axes of ``v`` besides the samples and the vector axis."""
        return v.coeffs.ndim - self.nb - 2

    def inner(self, v, w):
        """g(v, w) over broadcast batches of equal rank; put the smaller batch in ``v``."""
        return (self.lower(v) * w).sum(-1)


@lru_cache(maxsize=None)
def _displacements(m: int, d: int, order: int) -> Jet:
    """The d ambient displacement variables of the (m + d)-variable chart
    space at 0 (at the metric's order, one below the seed), kept first-order:
    n_entries(m, order) + d n_entries(m, order - 1) coefficients; read only."""
    sp = _space(m + d, order, lead=m)
    return stack([sp.variable(m + a, 0.0) for a in range(d)])


class _ChartCalc(_Calc):
    """Covariant calculus along the immersion for a chart ambient."""

    def __init__(self, space, pos):
        super().__init__(space, pos)
        m, d, order = self.m, space.dim, self.T.order  # g at the tangents' order
        self.d = d
        disp = _displacements(m, d, order)
        aug = embed(pos.truncate(order), disp.space) + disp
        g_aug = space.jets("metric", [aug[..., a] for a in range(d)])
        self.g = extract(g_aug, m, order)
        if np.linalg.eigvalsh(self.g.value).min() <= 0.0:
            raise GeometryError("ambient metric not positive definite along immersion")
        dg = stack([extract(g_aug, m, order - 1, extra=m + c) for c in range(d)], axis=-3)
        del aug, g_aug  # the widest jets of the block go before the d^3 stages
        gamma = christoffel_symbols(jet_matrix_inverse(self.g.truncate(order - 1)), dg)
        # precontracted Gamma(T_q, .)[q, c, b], one c at a time: covd then costs
        # d^2 products; the loop keeps the peak flat (see christoffel_symbols)
        self.gamma_t = stack([(gamma[..., None, c, :, :] * self.T[..., :, :, None]).sum(-2)
                              for c in range(d)], axis=-2)

    def lower(self, v):
        """The covectors g v of the fields ``v``."""
        return (_lift(self.g, self.nb, self._rank(v)) * v[..., :, None]).sum(-2)

    def covd(self, v):
        """Ambient covariant derivatives S + (m, ...) of the fields ``v`` along every parameter."""
        gt = _lift(self.gamma_t, self.nb + 1, self._rank(v))
        dv = v.gradient(axis=self.nb)
        return dv + (gt * _lift(v.truncate(dv.order), self.nb, 1)[..., None, :]).sum(-1)

    def frame_candidates(self):
        return Jet.constant(self.m, self.T.order - 1, np.eye(self.d))


class _EmbeddedCalc(_Calc):
    """Covariant calculus via Euclidean derivatives and tangential projection."""

    def __init__(self, space, pos):
        super().__init__(space, pos)
        self.d = space.rep_dim
        n = space.jets("normals", [pos[..., a].truncate(self.T.order - 1) for a in range(self.d)])
        self.normals = orthonormal_normals(n)

    def lower(self, v):
        return v

    def project(self, v):
        normals = _lift(self.normals, self.nb, self._rank(v))
        dots = self.inner(v[..., None, :], normals)
        return v - (dots[..., None] * normals).sum(-2)

    def covd(self, v):
        return self.project(v.gradient(axis=self.nb))

    def frame_candidates(self):
        eye = np.broadcast_to(np.eye(self.d), self.T.shape[:-2] + (self.d, self.d))
        return self.project(Jet.constant(self.m, self.T.order - 1, eye))


def _make_calc(space, pos):
    return _ChartCalc(space, pos) if space.backend == "chart" else _EmbeddedCalc(space, pos)


def geometry_jet_size(space: AmbientModel, imm: ImmersionModel, order: int) -> int:
    """Coefficients per jet in the widest jet space of ``point_geometry`` at
    ``order``: the positions' n_entries(m, order), or for a chart the
    augmented metric's n_entries(m, order - 1) + d n_entries(m, order - 2)
    (m parameters, d first-order displacements) if that is wider."""
    size = n_entries(imm.dim, order)
    if space.backend == "chart":
        return max(size, _displacements(imm.dim, space.dim, order - 1).space.size)
    return size


# -- frames --------------------------------------------------------------------


def _orthonormal_tangent(calc):
    """Gram-Schmidt on the coordinate tangent fields, tracking coefficients one order lower."""
    eye = Jet.constant(calc.m, calc.T.order - 1, np.eye(calc.m))
    frames, coeffs, lowered = [], [], []
    for i in range(calc.m):
        v, c = calc.T[..., i, :], eye[i]
        for gXj, Xj, cj in zip(lowered, frames, coeffs):
            dot = (gXj * v).sum(-1)[..., None]  # g(X_j, v)
            v = v - dot * Xj
            c = c - dot * cj
        n2 = calc.inner(v, v)
        if (n2.coeffs[..., 0] <= RANK_TOL**2).any():
            raise GeometryError(f"immersion differential rank-deficient (direction {i + 1})")
        inv = n2.powr(-0.5)[..., None]
        frames.append(inv * v)
        coeffs.append(inv * c)
        if i + 1 < calc.m:  # g X_i, once for every later direction
            lowered.append(calc.lower(frames[-1]))
    return stack(frames, axis=-2), stack(coeffs, axis=-2)


def _pick(jet, batch, picks):
    """Entry ``picks[r]`` of the first field axis after the sample axes
    ``batch``, at every sample r (in row-major order)."""
    c = jet.coeffs
    rows = c.reshape((len(picks),) + c.shape[len(batch):])[np.arange(len(picks)), picks]
    return Jet(jet.space, rows.reshape(batch + rows.shape[1:]))


def _pivots(norms, taken, scale):
    """Each row's pivot among the candidates' remaining norms^2 (rows x
    candidates): the lowest untaken index within 1e-14 relative of the row's
    largest untaken finite norm^2, which must exceed RANK_TOL^2 ``scale``."""
    free = np.where(taken | ~np.isfinite(norms), -np.inf, norms)
    best = free.max(-1)
    if not (best > RANK_TOL**2 * scale).all():
        raise GeometryError("could not complete an orthonormal normal frame")
    return (free >= best[:, None] * (1.0 - 1e-14)).argmax(-1)


def _complete_normal(calc, frames, need):
    """Pivoted Gram-Schmidt completion of the tangent frame to a normal frame
    one order below it; every sample takes its own pivots, applied by a gather."""
    frames = frames.truncate(frames.order - 1)
    reduced = calc.frame_candidates()
    for i in range(frames.shape[-2]):
        X = frames[..., i:i + 1, :]
        reduced = reduced - calc.inner(X, reduced)[..., :, None] * X
    batch = frames.shape[:-2]
    taken = np.zeros(reduced.shape[:-1], dtype=bool).reshape(-1, reduced.shape[-2])
    rows = np.arange(len(taken))
    normals = []
    while len(normals) < need:
        v = reduced
        for N in normals:
            v = v - calc.inner(N[..., None, :], v)[..., :, None] * N[..., None, :]
        n2 = calc.inner(v, v)
        norms = n2.coeffs[..., 0].reshape(taken.shape)
        if not normals:  # the candidates' own scale: their largest norm^2 at the first pivot
            scale = np.where(np.isfinite(norms), norms, 0.0).max(-1)
        picks = _pivots(norms, taken, scale)
        taken[rows, picks] = True
        normals.append(_pick(n2, batch, picks).powr(-0.5)[..., None] * _pick(v, batch, picks))
    return stack(normals, axis=-2)


# -- public data ---------------------------------------------------------------


@dataclass
class PointGeometry:
    """The geometry at parameter points of shape S + (m,): every array has
    the sample axes S in front, and ``ambient`` holds the ambient tensors at
    the positions, its metric ``g`` the one the frames are orthonormal for
    (the calculus's on a chart, the identity on an embedded ambient)."""

    u: np.ndarray
    position: np.ndarray
    tangent_frame: np.ndarray        # rows are orthonormal tangent vectors
    normal_frame: np.ndarray         # rows are orthonormal normal vectors
    induced_metric: np.ndarray       # coordinate-basis first fundamental form
    ambient: PointAmbient = field(repr=False)  # ambient tensors at the position, on first use
    second_fundamental: np.ndarray   # [normal, i, j] frame components of B
    mean_curvature: np.ndarray       # ambient-representation vector
    mean_normal_components: np.ndarray  # normal-frame components of H
    mean_curvature_norm: np.ndarray
    second_fundamental_norm2: np.ndarray
    m: int
    order: int
    _state: dict = field(repr=False, default_factory=dict)


@dataclass
class NormalFieldDerivatives:
    """At every sample (sample axes S in front), as components on the g-orthonormal
    frames: S + (codim,) on ``normal_frame``, S + (m,) on ``tangent_frame``."""

    nabla_norm: np.ndarray           # max_i |nabla-perp_{X_i} H|
    laplacian: np.ndarray            # normal: rough Laplacian of H in the normal bundle
    grad_h2: np.ndarray              # tangent: grad |H|^2
    trace_shape_mean: np.ndarray     # normal: sum_i B(X_i, A_H X_i)
    trace_shape_gradient: np.ndarray # tangent: sum_i A_{nabla-perp_{X_i} H}(X_i)


def _orientation(calc, H, normals):
    """Per-sample sign of a hypersurface normal: <H, nu> >= 0, else first
    nonvanishing component positive."""
    s = calc.inner(H.truncate(0), normals[..., 0, :]).coeffs[..., 0]
    nu = normals[..., 0, :].coeffs[..., 0]
    big = np.abs(nu) > 1e-12
    first = np.take_along_axis(nu, big.argmax(-1)[..., None], -1)[..., 0]
    flip = np.where(np.abs(s) <= 1e-12, big.any(-1) & (first < 0.0), s < -1e-12)
    return np.where(flip, -1.0, 1.0)


def _second_fundamental(calc, coeffs, cov, normals, i, j):
    """nabla_{X_i} X_j = sum_q coeffs[i, q] cov[q, j] and the normal components
    of B(X_i, X_j), for the index pairs (i, j) on a last axis."""
    nabla = (coeffs[..., i, :, None] * cov.transpose(1, 0, 2)[..., j, :, :]).sum(-2)
    return nabla, calc.inner(normals[..., :, None, :], nabla[..., None, :, :])


def point_geometry(space: AmbientModel, imm: ImmersionModel, u,
                   order: int = JET_ORDER) -> PointGeometry:
    """Frames, fundamental forms and mean curvature at the parameter points
    ``u`` (shape S + (m,)), every sample in one jet pass; one point is the
    case S = ().  A fault at any sample raises for the whole batch."""
    u = np.asarray(u, dtype=float)
    batch, m = u.shape[:-1], imm.dim
    pos = imm.jets("components", seed_point(u, order))
    calc = _make_calc(space, pos)
    T = calc.T.truncate(min(calc.T.order, 2))  # scalar curvature reads 2nd derivatives
    g_ind = calc.inner(T[..., :, None, :], T[..., None, :, :])
    gram = g_ind.value
    if not np.isfinite(gram).all():
        raise DomainError(f"non-finite induced metric at {tuple(u.tolist())}")
    if np.linalg.eigvalsh(gram).min() <= RANK_TOL**2:
        raise GeometryError(f"immersion differential rank-deficient at {tuple(u.tolist())}")

    frames, coeffs = _orthonormal_tangent(calc)
    codim = space.dim - m
    normals = _complete_normal(calc, frames, codim)

    # B on every pair (i, j) at order 0 (float products), for its values; H
    # reads only the diagonal, at order k - 2 (the one build when k - 2 = 0)
    cov, ii = calc.covd(frames), np.arange(m)
    nablaXX, b = _second_fundamental(calc, coeffs.truncate(0), cov.truncate(0),
                                     normals.truncate(0), *np.indices((m, m)).reshape(2, -1))
    b_vals = b.value.reshape(batch + (codim, m, m))
    nablaXX, b = ((nablaXX[..., ii * (m + 1), :], b[..., :, ii * (m + 1)]) if coeffs.order == 0
                  else _second_fundamental(calc, coeffs, cov, normals, ii, ii))

    # mean curvature field H = (1/m) sum_i B(X_i, X_i), as jets
    h_n = b.sum(-1) * (1.0 / m)
    H = (h_n[..., :, None] * normals).sum(-2)

    if codim == 1:
        sign = _orientation(calc, H, normals)
        if (sign < 0.0).any():
            normals = normals * sign[..., None, None]
            b_vals = b_vals * sign[..., None, None, None]
            h_n = h_n * sign[..., None]

    h_n_vals = h_n.value
    position = pos.value
    h_norm = np.sqrt((h_n_vals**2).sum(-1))
    b_norm2 = (b_vals**2).reshape(batch + (-1,)).sum(-1)
    state = dict(calc=calc, pos=pos, frames=frames, coeffs=coeffs, normals=normals,
                 nablaXX=nablaXX, H=H, g_ind=g_ind)
    return PointGeometry(
        u=u,
        position=position,
        tangent_frame=frames.value,
        normal_frame=normals.value,
        induced_metric=gram,
        ambient=PointAmbient(space, position, calc.g.value if space.backend == "chart" else None),
        second_fundamental=b_vals,
        mean_curvature=H.value,
        mean_normal_components=h_n_vals,
        mean_curvature_norm=h_norm,
        second_fundamental_norm2=b_norm2,
        m=m,
        order=order,
        _state=state,
    )


def normal_derivatives(pg: PointGeometry) -> NormalFieldDerivatives:
    """Normal-connection derivatives of the mean curvature field at every
    sample of ``pg``, in frame components: nabla-perp H (``w`` in normal-frame
    components, ``W`` as a vector field) and its ambient covariant derivative
    in one jet pass, the rest in float algebra over the sample axes."""
    if pg.order < JET_ORDER:
        raise GeometryError(f"normal derivatives need immersion jets of order {JET_ORDER}")
    st, m = pg._state, pg.m
    calc, frames, coeffs, normals, H = (st[k] for k in ("calc", "frames", "coeffs", "normals", "H"))
    DH = (coeffs[..., :, :, None] * calc.covd(H)[..., None, :, :]).sum(-2)
    w = calc.inner(normals[..., :, None, :], DH[..., None, :, :])
    W = (w[..., :, :, None] * normals[..., :, None, :]).sum(-3)
    drift = calc.inner(st["nablaXX"].truncate(0)[..., :, None, :], frames[..., None, :, :]).value
    grad_hh = calc.inner(H.truncate(1), H).gradient(axis=calc.nb).value
    cov_w, w, cvals = calc.covd(W).value, w.value, coeffs.value

    nabla_norm = np.sqrt((w**2).sum(-2)).max(-1)
    # rough Laplacian: sum_i nabla-perp_{X_i} nabla-perp_{X_i} H
    #                  - nabla-perp over the induced-connection drift,
    # summed left to right, term_1 - drift_1 + term_2 - ..., as the pinned reports
    nabla_ww = vec_mat(cvals, cov_w.swapaxes(-3, -2))
    terms = np.stack([nabla_ww @ (pg.normal_frame @ pg.ambient.g).mT, -drift @ w.mT], -2)
    lap = terms.reshape(terms.shape[:-3] + (2 * m, -1)).sum(-2)

    bv = pg.second_fundamental
    return NormalFieldDerivatives(
        nabla_norm=nabla_norm, laplacian=lap, grad_h2=mat_vec(cvals, grad_hh),
        trace_shape_mean=np.einsum("...aij,...a,...bij->...b", bv, pg.mean_normal_components, bv),
        trace_shape_gradient=np.einsum("...aij,...ai->...j", bv, w))


def _project(frame, g, vec):
    """Projection of ``vec`` onto the span of the g-orthonormal rows of
    ``frame``, at every sample."""
    coef = frame[..., :, None, :] @ g[..., None, :, :] @ vec[..., None, :, None]
    return (coef[..., 0] * frame).sum(-2)


def scalar_curvature(pg: PointGeometry):
    """(intrinsic, via_gauss) scalar curvature of the induced metric at
    every sample.

    ``intrinsic`` comes from the induced metric's own Christoffel jets;
    ``via_gauss`` contracts the ambient algebraic curvature over the tangent
    frame and adds m^2 |H|^2 - |B|^2.  Their agreement is the Gauss-equation
    consistency check.
    """
    m, st = pg.m, pg._state
    if m == 1:
        intrinsic = np.zeros(pg.mean_curvature_norm.shape)
    else:
        gamma = christoffel_from_metric_jets(st["g_ind"])
        intrinsic = scalar_from_christoffel(pg.induced_metric, gamma.value,
                                            gamma.gradient(axis=st["calc"].nb).value)
    # sum_ij R(X_i, X_j, X_j, X_i), one frame at a time
    frame = pg.tangent_frame
    r = np.einsum("...ix,...xyza->...iyza", frame, pg.ambient.curvature["combined"])
    r = np.einsum("...ia,...iyza->...iyz", frame @ pg.ambient.g, r)
    r = np.einsum("...jy,...iyz->...ijz", frame, r)
    amb = np.einsum("...jz,...ijz->...", frame, r)
    via_gauss = amb + m * m * pg.mean_curvature_norm**2 - pg.second_fundamental_norm2
    return intrinsic, via_gauss


def pseudo_umbilical_check(pg: PointGeometry):
    """Whether A_H is |H|^2 Id at every sample, and its deviation; None at
    minimal samples (see :func:`objects`)."""
    hn = pg.mean_normal_components
    a_h = np.einsum("...a,...aij->...ij", hn, pg.second_fundamental)
    h2 = pg.mean_curvature_norm**2
    dev = norm(a_h - h2[..., None, None] * np.eye(pg.m), 2)
    keep = pg.mean_curvature_norm > PSEUDO_UMBILICAL_TOL
    return objects(dev < PSEUDO_UMBILICAL_TOL, keep), objects(dev, keep)


# -- finite-difference oracle ----------------------------------------------------


def _shifted(v, q, step):
    w = v.copy()
    w[q] += step
    return w


def _covd_pointwise(space, conn, dpos_q, vec_val, dvec_q):
    """Ambient covariant derivative from point values and plain derivatives;
    ``conn`` is the Christoffel array (chart) or the tangent projector."""
    if space.backend == "chart":
        return dvec_q + np.einsum("cab,a,b->c", conn, dpos_q, vec_val)
    return conn @ dvec_q


def fd_normal_laplacian(space: AmbientModel, imm: ImmersionModel, u, h: float) -> np.ndarray:
    """Second-order central-difference evaluation of the normal rough Laplacian.

    Differences the mean-curvature field over the parameter grid; all
    pointwise data (frames, connection, induced metric) are evaluated
    exactly, so the h^2 truncation error of the differencing is what a
    convergence study observes.  The distinct stencil points (keyed by
    their exact coordinates) run as one batch of order-2 geometry, and the
    connection at the points that carry a covariant derivative as one more.
    """
    u = np.asarray(u, dtype=float)
    m = imm.dim
    # nabla-perp_{d_q} H is differenced around u and around u +- h e_p
    bases = [u] + [_shifted(u, p, s) for p in range(m) for s in (h, -h)]
    points: dict = {}
    for v in bases:
        for w in [v] + [_shifted(v, q, s) for q in range(m) for s in (h, -h)]:
            points.setdefault(w.tobytes(), w)
    row = {key: i for i, key in enumerate(points)}

    def at(v):
        return row[v.tobytes()]

    pg = point_geometry(space, imm, np.array(list(points.values())), 2)
    H = pg.mean_curvature
    dpos = pg._state["pos"].gradient(axis=-2).value  # dpos[row, q] = d_q position
    base_rows = [at(v) for v in bases]
    connection = christoffel_point if space.backend == "chart" else tangent_projector
    conn = dict(zip(base_rows, connection(space, pg.position[base_rows])))

    def W_at(v, q):
        # nabla-perp_{d_q} H by one central difference around v
        dH = (H[at(_shifted(v, q, h))] - H[at(_shifted(v, q, -h))]) / (2.0 * h)
        i = at(v)
        cov = _covd_pointwise(space, conn[i], dpos[i, q], H[i], dH)
        return _project(pg.normal_frame[i], pg.ambient.g[i], cov)

    i0 = at(u)
    ginv = np.linalg.inv(pg.induced_metric[i0])
    dg = pg._state["g_ind"][i0].gradient().value  # dg[p, a, b] = d_p g_ab
    low = 0.5 * (dg.transpose(2, 1, 0) + dg.transpose(2, 0, 1) - dg)
    gamma_ind = np.einsum("ce,eab->cab", ginv, low)

    lap = np.zeros(space.rep_dim)
    W0 = [W_at(u, q) for q in range(m)]
    for p in range(m):
        for q in range(m):
            dW = (W_at(_shifted(u, p, h), q) - W_at(_shifted(u, p, -h), q)) / (2.0 * h)
            cov = _covd_pointwise(space, conn[i0], dpos[i0, p], W0[q], dW)
            term = _project(pg.normal_frame[i0], pg.ambient.g[i0], cov)
            term = term - np.einsum("r,rc->c", gamma_ind[:, p, q], np.array(W0))
            lap += ginv[p, q] * term
    return lap
