"""Ambient space-form models.

Two kinds of ambient space are supported: generalized complex space forms
(4-dimensional almost Hermitian, curvature alpha*R_const + beta*R_complex)
and generalized Sasakian space forms (odd-dimensional almost contact metric,
curvature f1*R_const + f2*R_reeb + f3*R_fundform).  The curvature tensor is
always the coefficient-weighted sum of these generalized terms, which
:class:`PointAmbient` builds once per point as (D, D, D, D) arrays from g,
J or (phi, xi); agreement with the Riemann tensor of the chart metric is a
test property of catalog models, never a runtime path.

Two metric backends:

* ``chart`` -- metric components are expressions in ambient coordinates;
  covariant derivatives go through Christoffel symbols obtained from jets.
* ``embedded`` -- the ambient manifold sits isometrically in Euclidean
  space; covariant differentiation is Euclidean differentiation along the
  lines x + tX through any point of N, tangent fields extended and then
  projected by P = I - n^T n, n the :func:`orthonormal_normals` of the
  model, against the same table of structure identities as a chart;
  vectors carry embedding-space components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exprs import Bindings, CompiledFields, Expr, evaluate_jet_env  # noqa: F401
from .jets import Jet, jet_matrix_inverse, seed_point, stack

# evaluate_jet_env is imported for bench/tracing.py, which wraps it in this
# module's namespace; the tensors here run as compiled programs.

KIND_COMPLEX = "generalized_complex"
KIND_CONTACT = "generalized_sasakian"

SASAKI = "sasaki"
KENMOTSU = "kenmotsu"
COSYMPLECTIC = "cosymplectic"
COMPLEX_SPACE_FORM = "complex_space_form"

RANK_TOL = 1e-8  # Gram-Schmidt: a row left with norm <= RANK_TOL (relative on normals) is dependent


class GeometryError(Exception):
    """Degenerate geometric input (rank loss, singular metric, bad frames)."""


@dataclass(frozen=True)
class ClassicalTag:
    """Classical space-form class with its curvature parameter."""

    family: str
    value: float


def coefficients_for_tag(tag: ClassicalTag) -> tuple[float, ...]:
    """Curvature coefficients generated by a classical space-form tag."""
    c = tag.value
    if tag.family == SASAKI:
        return ((c + 3.0) / 4.0, (c - 1.0) / 4.0, (c - 1.0) / 4.0)
    if tag.family == KENMOTSU:
        return ((c - 3.0) / 4.0, (c + 1.0) / 4.0, (c + 1.0) / 4.0)
    if tag.family == COSYMPLECTIC:
        return (c / 4.0, c / 4.0, c / 4.0)
    if tag.family == COMPLEX_SPACE_FORM:
        return (c, c)
    raise ValueError(f"unknown space-form family {tag.family!r}")


@dataclass
class AmbientModel(CompiledFields):
    """An ambient space form.  Its expression fields (``metric``,
    ``cstruct``, ``phi``, ``reeb``, ``coeffs``, ``normals``)
    each compile to one program on first use (see :class:`CompiledFields`)."""

    name: str
    kind: str                       # KIND_COMPLEX | KIND_CONTACT
    backend: str                    # "chart" | "embedded"
    dim: int                        # manifold dimension
    coords: tuple[str, ...]         # chart coords, or embedding coords (embedded)
    coeffs: tuple[Expr, ...]        # (alpha, beta) or (f1, f2, f3), in self.coords
    metric: tuple | None = None     # chart: matrix of Expr
    cstruct: tuple | None = None    # complex: matrix of Expr for J
    phi: tuple | None = None        # contact: matrix of Expr
    reeb: tuple | None = None       # contact: vector of Expr
    normals: tuple | None = None    # embedded: normal fields of N in R^D
    tag: ClassicalTag | None = None
    bindings: Bindings = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == KIND_COMPLEX and self.dim != 4:
            raise GeometryError("generalized complex space forms are 4-dimensional")
        if self.kind == KIND_CONTACT and self.dim % 2 == 0:
            raise GeometryError("generalized Sasakian space forms are odd-dimensional")
        codim = len(self.normals or ())
        if self.dim != len(self.coords) - codim:
            raise GeometryError(f"dim {self.dim} does not match {len(self.coords)} coordinates "
                                f"and {codim} normal fields")

    @property
    def rep_dim(self) -> int:
        """Dimension of the vector representation used for ambient tensors."""
        return self.dim if self.backend == "chart" else len(self.coords)


# -- float algebra over sample axes ------------------------------------------
#
# A float tensor at points of shape S + (n,) has the sample axes S in front.
# Products run as numpy matmul over S with the core shapes of one sample, so
# each sample gets the same BLAS call (dot, gemv or gemm) as a call at that
# point alone: a batch is bitwise a loop over its points.

def vec_mat(v, M):
    """v @ M at every sample."""
    return (v[..., None, :] @ M)[..., 0, :]


def mat_vec(M, v):
    """M @ v at every sample."""
    return (M @ v[..., None])[..., 0]


def dot(a, b):
    """a @ b of vectors at every sample."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def norm(a, k: int = 1):
    """Norm of the last ``k`` axes at every sample, as ``np.linalg.norm``."""
    flat = a.reshape(a.shape[:a.ndim - k] + (-1,))
    return np.sqrt(dot(flat, flat))


def spectral(M):
    """Spectral norm of the matrix at every sample, as ``np.linalg.norm(M, 2)``."""
    return np.linalg.norm(M, 2, axis=(-2, -1))


def outer(a, b):
    """a (x) b of vectors at every sample."""
    return a[..., :, None] * b[..., None, :]


def objects(value, keep=True):
    """``value`` as Python objects over its sample axes, None where ``keep``
    fails: an object array, or the object itself at S = ()."""
    return np.where(keep, value, None)[()]


# -- pointwise tensors -------------------------------------------------------
#
# Points ``x`` of shape S + (n,) run each program once, on arrays over S.

def metric_at(space: AmbientModel, x) -> np.ndarray:
    """Metric matrix in the vector representation at ``x``."""
    if space.backend == "embedded":
        return np.broadcast_to(np.eye(space.rep_dim), np.shape(x)[:-1] + (space.rep_dim,) * 2)
    g = space.values("metric", x)
    if np.linalg.eigvalsh(g).min() <= 0.0:
        raise GeometryError(f"metric not positive definite at {tuple(x)}")
    return g


def structure_at(space: AmbientModel, x):
    """Structure tensors at ``x``: J matrix, or (phi matrix, xi vector)."""
    if space.kind == KIND_COMPLEX:
        return space.values("cstruct", x)
    return space.values("phi", x), space.values("reeb", x)


def coefficients_at(space: AmbientModel, x) -> tuple:
    """The curvature coefficients at ``x``, one array over S each."""
    return tuple(np.moveaxis(space.values("coeffs", x), -1, 0))


# -- jets of the metric and connection ---------------------------------------

def metric_jet(space: AmbientModel, x, order: int) -> Jet:
    """Jets of the chart metric components at ``x``, the coordinates being
    the jet variables, as an (n, n) jet array; points ``x`` of shape
    S + (n,) give one (n, n) array per sample, in one pass."""
    if space.backend != "chart":
        raise GeometryError("metric jets need a chart backend")
    g = space.jets("metric", seed_point(x, order))
    if np.linalg.eigvalsh(g.value).min() <= 0.0:
        raise GeometryError(f"metric not positive definite at {tuple(x)}")
    return g


def christoffel_symbols(ginv: Jet, dg: Jet) -> Jet:
    """Christoffel symbol jets Gamma[..., c, a, b] from the inverse metric and
    ``dg[..., c, a, b]`` = d_c g_ab, both of the same order; leading axes
    are sample axes."""
    n = ginv.shape[-1]
    low = (dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg) * 0.5
    # Gamma is symmetric in (a, b): contract the upper triangle only, one
    # upper index c at a time, so that no (n, n, n(n + 1)/2) product is held.
    # One contraction over every c, here and for _ChartCalc.gamma_t, gives
    # the same bits and saves small blocks a few kernel calls, but raised
    # the seed-0 peak_rss_mb of the check-catalog and sweep-geodesic
    # benchmarks by 0.6-0.8 MB (2-vCPU VM, numpy 2.4.6), so the loop stays.
    a, b = np.triu_indices(n)
    pairs = low[..., :, a, b]
    out = np.empty(ginv.shape[:-2] + (n, n, n, ginv.coeffs.shape[-1]))
    for c in range(n):
        upper = (ginv[..., c, :, None] * pairs).sum(-2).coeffs
        out[..., c, a, b, :] = out[..., c, b, a, :] = upper
    return Jet(ginv.space, out)


def christoffel_from_metric_jets(g) -> Jet:
    """Christoffel symbol jets (one order lower than the metric jets)."""
    g = stack(g)
    dg = g.gradient(axis=-3)
    return christoffel_symbols(jet_matrix_inverse(g.truncate(dg.order)), dg)


def christoffel_point(space: AmbientModel, x) -> np.ndarray:
    """Gamma^c_ab at ``x``; points of shape S + (n,) give S + (n, n, n) from
    one batched metric jet."""
    return christoffel_from_metric_jets(metric_jet(space, x, 1)).value


def riemann_from_christoffel(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Riemann tensor values R[..., i,j,k,l]: R(e_i,e_j)e_k = sum_l R[i,j,k,l] e_l,
    from the Christoffel values ``gamma[..., c, a, b]`` and their partials
    ``dgamma[..., i, c, a, b]`` = d_i Gamma^c_ab; leading axes are sample axes.

    Sign convention R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y].
    """
    return ((np.einsum("...iljk->...ijkl", dgamma) - np.einsum("...jlik->...ijkl", dgamma))
            + (np.einsum("...lis,...sjk->...ijkl", gamma, gamma)
               - np.einsum("...ljs,...sik->...ijkl", gamma, gamma)))


def scalar_from_christoffel(g: np.ndarray, gamma: np.ndarray, dgamma: np.ndarray):
    """Scalar curvature at every sample from the metric values ``g`` and the
    Christoffel values and partials (see :func:`riemann_from_christoffel`)."""
    ricci = np.einsum("...ijki->...jk", riemann_from_christoffel(gamma, dgamma))
    return np.einsum("...jk,...jk->...", np.linalg.inv(g), ricci)


def scalar_from_metric_jets(g):
    """Scalar curvature of the metric given by jets of order >= 2."""
    g = stack(g)
    gamma = christoffel_from_metric_jets(g)
    return scalar_from_christoffel(g.value, gamma.value, gamma.gradient().value)


# -- algebraic curvature ------------------------------------------------------

def _twisted_term(g, S):
    """The building block g(SY, Z) SX - g(SX, Z) SY + 2 g(SY, X) SZ of a
    structure S (R_complex for S = J, R_fundform for S = phi), as
    T[x, y, z, a]."""
    W = S.mT @ g  # W[u, v] = g(S e_u, e_v)
    return (np.einsum("...yz,...ax->...xyza", W, S) - np.einsum("...xz,...ay->...xyza", W, S)
            + 2.0 * np.einsum("...yx,...az->...xyza", W, S))


class PointAmbient:
    """The ambient tensors at the points ``x`` (shape S + (n,)), with S in
    front, each evaluated on first use and then kept: the metric ``g``
    (checked positive definite), the curvature ``coeffs``, the ``structure``
    (J, or (phi, xi)) and the declared ``curvature``.  Their readers share
    one snapshot, so each tensor runs its program once for all the points.
    A caller that already holds the metric at ``x``, checked, passes it as
    ``g``: a geometry's snapshot takes its calculus's metric so."""

    def __init__(self, space: AmbientModel, x, g=None):
        self.space = space
        self.x = x
        if g is not None:
            self.g = g

    @cached_property
    def g(self) -> np.ndarray:
        return metric_at(self.space, self.x)

    @cached_property
    def coeffs(self) -> tuple[float, ...]:
        return coefficients_at(self.space, self.x)

    @cached_property
    def structure(self):
        return structure_at(self.space, self.x)

    @cached_property
    def curvature(self) -> dict:
        """Each generalized curvature term, plus the coefficient-weighted
        ``combined``, as S + (D, D, D, D) arrays T with R(X, Y)Z =
        T[..., x, y, z, a] X^x Y^y Z^z."""
        g = self.g
        eye = np.eye(g.shape[-1])
        parts = {"const": (np.einsum("...yz,xa->...xyza", g, eye)
                           - np.einsum("...xz,ya->...xyza", g, eye))}
        if self.space.kind == KIND_COMPLEX:
            parts["complex"] = _twisted_term(g, self.structure)
        else:
            phi, xi = self.structure
            eta = mat_vec(g, xi)
            parts["reeb"] = (np.einsum("...x,...z,ya->...xyza", eta, eta, eye)
                             - np.einsum("...y,...z,xa->...xyza", eta, eta, eye)
                             + np.einsum("...xz,...y,...a->...xyza", g, eta, xi)
                             - np.einsum("...yz,...x,...a->...xyza", g, eta, xi))
            parts["fundform"] = _twisted_term(g, phi)
        parts["combined"] = sum(c[..., None, None, None, None] * t
                                for c, t in zip(self.coeffs, parts.values()))
        return parts


def curvature_parts(space: AmbientModel, x, X, Y, Z) -> dict:
    """Each generalized curvature term R(X, Y)Z at ``x``, plus the weighted sum."""
    return {k: np.einsum("xyza,x,y,z->a", t, X, Y, Z)
            for k, t in PointAmbient(space, x).curvature.items()}


# -- embedded-backend helpers --------------------------------------------------

def orthonormal_normals(n: Jet) -> Jet:
    """Gram-Schmidt in row order on an embedded model's normal fields ``n`` (a
    jet array S + (k, D), order 0 for float values), so that they need only
    span the normal space; a row left with norm <= RANK_TOL times its own
    norm raises GeometryError, whatever the fields' scale."""
    rows = []
    for k in range(n.shape[-2]):
        v = n[..., k, :]
        for e in rows:
            v = v - (v * e).sum(-1)[..., None] * e
        n2 = (v * v).sum(-1)
        if (n2.coeffs[..., 0] <= RANK_TOL**2 * (n.coeffs[..., k, :, 0]**2).sum(-1)).any():
            raise GeometryError(f"ambient normal fields linearly dependent (field {k + 1})")
        rows.append(v * n2.powr(-0.5)[..., None])
    return stack(rows, axis=-2)


def tangent_projector(space: AmbientModel, x) -> np.ndarray:
    """Orthogonal projector P = I - n^T n of R^D onto T N at the points ``x``
    (shape S + (n,)), n the orthonormalized normals, as S + (D, D); I on a chart."""
    P = np.broadcast_to(np.eye(space.rep_dim), np.shape(x)[:-1] + (space.rep_dim,) * 2)
    if space.backend != "embedded":
        return P
    n = orthonormal_normals(space.jets("normals", seed_point(x, 0))).value
    return P - n.mT @ n


# -- structure verification -----------------------------------------------------
#
# Every identity is an array over the sample axes of a snapshot; the audit
# reduces each with one max.  Both backends share each identity: ``P``
# restricts the algebraic ones to the tangent space (P = I on a chart), and a
# backend supplies only the covariant derivatives along the rows E of a
# tangent basis, which one table of right-hand sides is compared with.

def _algebraic_residuals(amb: PointAmbient, P) -> dict:
    """The algebraic structure identities at every sample, on tangent vectors:
    the raw matrix identities of an embedded model only hold there."""
    g = amb.g
    eye = np.eye(g.shape[-1])

    def tangent(M):
        return spectral(P.mT @ M @ P)

    if amb.space.kind == KIND_COMPLEX:
        J = amb.structure
        return {"square": tangent(J @ J + eye), "compatibility": tangent(J.mT @ g @ J - g)}
    phi, xi = amb.structure
    eta = mat_vec(g, xi)
    return {
        "reeb_unit": abs(dot(eta, xi) - 1.0),
        "square": tangent(phi @ phi + eye - outer(xi, eta)),
        "compatibility": tangent(phi.mT @ g @ phi - (g - outer(eta, eta))),
        "reeb_kernel": norm(mat_vec(phi, xi)),
    }


def _covariant_residuals(amb: PointAmbient, E, nabla) -> dict:
    """|nabla T - rhs| of each covariant identity of the tag's family at every
    sample.  ``nabla(name)`` is a backend's (nabla_{E_i} T) E_j, as
    [..., i, j, :], of the (1,1)-tensor field ``name``, and nabla_{E_i} T, as
    [..., i, :], of a vector field.  The right-hand sides (Blair 2010) are
    nabla J = 0, and for (nabla_X phi)Y and nabla_X xi: Sasakian
    g(X, Y)xi - eta(Y)X and -phi X, Kenmotsu -g(X, phi Y)xi - eta(Y)phi X and
    X - eta(X)xi, cosymplectic 0 and 0."""
    if amb.space.kind == KIND_COMPLEX:
        return {"covariant_complex": np.abs(nabla("cstruct"))}
    g, (phi, xi), family = amb.g, amb.structure, amb.space.tag.family
    eta_E = mat_vec(E, mat_vec(g, xi))
    rhs_phi = rhs_xi = 0.0
    if family == SASAKI:
        rhs_phi = ((E @ g @ E.mT)[..., None] * xi[..., None, None, :]
                   - eta_E[..., None, :, None] * E[..., :, None, :])
        rhs_xi = -(E @ phi.mT)
    elif family == KENMOTSU:
        phi_E = E @ phi.mT
        rhs_phi = (-(E @ g @ phi_E.mT)[..., None] * xi[..., None, None, :]
                   - eta_E[..., None, :, None] * phi_E[..., :, None, :])
        rhs_xi = E - eta_E[..., None] * xi[..., None, :]
    return {"covariant_phi": np.abs(nabla("phi") - rhs_phi),
            "covariant_reeb": np.abs(nabla("reeb") - rhs_xi)}


def _chart_nabla(amb: PointAmbient):
    """The coordinate basis E = I, and ``nabla`` of :func:`_covariant_residuals`
    from the Christoffel symbols and the field jets, one batch each."""
    space, x = amb.space, amb.x
    env = seed_point(x, 1)
    gam = christoffel_point(space, x)

    def nabla(name):
        f = space.jets(name, env)
        v, dv = f.value, f.gradient(axis=x.ndim - 1).value  # dv[..., a, ...] = d_a T
        if v.ndim == x.ndim:
            return dv + np.einsum("...cae,...e->...ac", gam, v)
        return np.swapaxes(dv + np.einsum("...cae,...eb->...acb", gam, v)
                           - np.einsum("...eab,...ce->...acb", gam, v), -1, -2)

    return np.broadcast_to(np.eye(space.dim), gam.shape[:-1]), nabla


def _embedded_nabla(amb: PointAmbient, P):
    """Each sample's orthonormal tangent basis E, the eigenvectors of ``P``
    for eigenvalue 1, and ``nabla`` of :func:`_covariant_residuals` along the
    lines x + t E_i, one first-order jet axis: nabla_X V = P D_X V, and
    (nabla_X T)Y = P D_X(T Y) - T P D_X Y, each Y = E_j extended off the
    point as the tangent projection of E_j, by the orthonormalized normals."""
    space, x = amb.space, amb.x
    E = np.linalg.eigh(P)[1][..., -space.dim:].mT
    lines = Jet.variable(1, 1, 0, 0.0) * E + x[..., None, :]
    env = [lines[..., a] for a in range(space.rep_dim)]
    n = orthonormal_normals(space.jets("normals", env))[..., None, :, :]  # [..., i, 1, k, :]
    Y = E[..., None, :, :] - ((n * E[..., None, :, None, :]).sum(-1)[..., None] * n).sum(-2)

    def nabla(name):
        f = space.jets(name, env)
        if f.shape == E.shape:
            return f.derivative(0).value @ P  # P is symmetric
        TY = (f[..., :, None, :, :] * Y[..., None, :]).sum(-1)
        dTY, dY = (v.derivative(0).value @ P[..., None, :, :] for v in (TY, Y))
        return dTY - dY @ f.value.mT

    return E, nabla


def verify_structure(space: AmbientModel, points) -> dict[str, float]:
    """Max residual over ``points`` (shape (k, n)) of each algebraic structure
    identity, and of each covariant-derivative identity when a classical tag
    is present, by identity.  The points run every tensor and jet as one
    batch: one :class:`PointAmbient` and one :func:`tangent_projector`."""
    points = np.asarray(points, dtype=float)
    if not len(points):
        return {}
    amb = PointAmbient(space, points)
    P = tangent_projector(space, points)
    residuals = _algebraic_residuals(amb, P)
    if space.tag is not None:
        basis = _chart_nabla(amb) if space.backend == "chart" else _embedded_nabla(amb, P)
        residuals.update(_covariant_residuals(amb, *basis))
    return {k: float(np.max(v)) for k, v in residuals.items()}
