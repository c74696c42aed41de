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
  space; covariant differentiation is Euclidean differentiation followed by
  tangential projection, and all vectors carry embedding-space components.
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
    # Gamma is symmetric in (a, b): contract the upper triangle only
    a, b = np.triu_indices(n)
    upper = (ginv[..., :, :, None] * low[..., None, :, a, b]).sum(-2)
    out = np.empty(upper.shape[:-2] + (n, n, n, upper.coeffs.shape[-1]))
    out[..., :, a, b, :] = upper.coeffs
    out[..., :, b, a, :] = upper.coeffs
    return Jet(upper.space, out)


def christoffel_from_metric_jets(g) -> Jet:
    """Christoffel symbol jets (one order lower than the metric jets)."""
    g = stack(g)
    dg = g.gradient(axis=-3)
    return christoffel_symbols(jet_matrix_inverse(g.truncate(dg.order)), dg)


def christoffel_jet(space: AmbientModel, x, order: int):
    """Jets of the chart Christoffel symbols Gamma^c_ab at ``x`` (order <= 2)."""
    if order > 2:
        raise ValueError("christoffel jets supported up to order 2")
    return christoffel_from_metric_jets(metric_jet(space, x, order + 1))


def christoffel_point(space: AmbientModel, x) -> np.ndarray:
    """Gamma^c_ab at ``x``; points of shape S + (n,) give S + (n, n, n) from
    one batched metric jet."""
    return christoffel_jet(space, x, 0).value


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
    one snapshot, so each tensor runs its program once for all the points."""

    def __init__(self, space: AmbientModel, x):
        self.space = space
        self.x = x

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

def tangent_projector(space: AmbientModel, x) -> np.ndarray:
    """Orthogonal projector of R^D onto the tangent space of N at ``x``."""
    if space.backend != "embedded":
        return np.eye(space.rep_dim)
    P = np.eye(space.rep_dim)
    for n in space.values("normals", x):
        n = n / np.linalg.norm(n)
        P -= np.outer(n, n)
    return P


# -- structure verification -----------------------------------------------------

def _algebraic_residuals_complex(g, J):
    r = {"square": np.linalg.norm(J @ J + np.eye(len(g)), 2)}
    r["compatibility"] = np.linalg.norm(J.T @ g @ J - g, 2)
    return r


def _algebraic_residuals_contact(g, phi, xi, P=None):
    # P restricts the identities to the tangent space of an embedded model;
    # the raw matrix identities only hold on tangent vectors.
    n = len(g)
    if P is None:
        P = np.eye(n)
    eta = g @ xi
    r = {
        "reeb_unit": abs(eta @ xi - 1.0),
        "square": np.linalg.norm(P.T @ (phi @ phi + np.eye(n) - np.outer(xi, eta)) @ P, 2),
        "compatibility": np.linalg.norm(P.T @ (phi.T @ g @ phi - (g - np.outer(eta, eta))) @ P, 2),
        "reeb_kernel": np.linalg.norm(phi @ xi),
    }
    return r


def _covariant_residuals_chart(space: AmbientModel, ambs: list):
    """Covariant-identity residuals at the points of ``ambs``, one dict per
    point; the Christoffel symbols and the structure-field jets of all the
    points run as one batch."""
    d = space.dim
    points = np.array([amb.x for amb in ambs], dtype=float)
    env = seed_point(points, 1)
    gammas = christoffel_point(space, points)
    fam = space.tag.family

    def fields(name):
        """Values, and plain first partials [n, a, ...] = d_a T, of a structure field."""
        f = space.jets(name, env)
        return f.value, f.gradient(axis=1).value

    def nabla(gam, v, dv):
        """Covariant derivative of a structure field at one point: [a, c, b] =
        (nabla_a T)^c_b for a (1,1)-tensor, [a, c] for a vector field."""
        out = dv + np.einsum("cae,e...->ac...", gam, v)
        if v.ndim == 2:
            out -= np.einsum("eab,ce->acb", gam, v)
        return out

    if space.kind == KIND_COMPLEX:
        J, dJ = fields("cstruct")
        return [{"covariant_complex": float(np.abs(nabla(gam, v, dv)).max())}
                for gam, v, dv in zip(gammas, J, dJ)]
    (phis, dphis), (xis, dxis) = fields("phi"), fields("reeb")
    out = []
    for amb, gam, phiv, dphi, xiv, dxi in zip(ambs, gammas, phis, dphis, xis, dxis):
        g = amb.g
        nphi, nxi = nabla(gam, phiv, dphi), nabla(gam, xiv, dxi)
        eta = g @ xiv
        if fam == SASAKI:
            rhs_phi = np.einsum("ab,c->acb", g, xiv) - np.einsum("b,ca->acb", eta, np.eye(d))
            rhs_xi = -phiv.T
        elif fam == KENMOTSU:
            rhs_phi = -np.einsum("b,ca->acb", eta, phiv) - np.einsum("ab,c->acb", g @ phiv, xiv)
            rhs_xi = np.eye(d) - np.outer(eta, xiv)
        else:
            rhs_phi = np.zeros((d, d, d))
            rhs_xi = np.zeros((d, d))
        out.append({
            "covariant_phi": float(np.abs(nphi - rhs_phi).max()),
            "covariant_reeb": float(np.abs(nxi - rhs_xi).max()),
        })
    return out


def _covariant_residuals_embedded(ambs: list, projectors: list):
    # Differentiate the structure fields along great-circle-like curves
    # c(t) = (x + tX)/|x + tX| using one-variable jets; the ambient covariant
    # derivative is the curve derivative followed by tangential projection
    # P.  The curves of all basis directions X at all the points run the
    # phi and xi programs as one jet array, and all tangent fields Y of a
    # point's basis go through each of its directions as one jet array.
    space = ambs[0].space
    D = space.rep_dim
    bases = []
    for P in projectors:
        basis = []
        for a in range(D):
            v = P[:, a]
            for b in basis:
                v = v - (v @ b) * b
            if np.linalg.norm(v) > 1e-8:
                basis.append(v / np.linalg.norm(v))
        bases.append(np.array(basis))
    starts = np.cumsum([0] + [len(Y) for Y in bases])
    curves = Jet.constant(1, 1, np.concatenate(
        [np.broadcast_to(np.asarray(amb.x, dtype=float), Y.shape) for amb, Y in zip(ambs, bases)]))
    curves.coeffs[..., 1] = np.concatenate(bases)
    curves = curves * (curves * curves).sum(-1).sqrt().reciprocal()[:, None]
    env = list(curves.transpose(1, 0))
    phi_all = space.jets("phi", env)
    dxi_all = space.jets("reeb", env).derivative(0).value
    out = []
    for amb, P, Y, lo, hi in zip(ambs, projectors, bases, starts, starts[1:]):
        phi0, xi0 = amb.structure
        eta0 = xi0  # Euclidean representation: eta(v) = <v, xi>
        res_phi, res_xi = 0.0, 0.0
        for X, pos, phi_j, dxi in zip(Y, curves[lo:hi], phi_all[lo:hi], dxi_all[lo:hi]):
            res_xi = max(res_xi, np.abs(P @ dxi - (-(phi0 @ X))).max())
            # Y extended along the curve as its projection onto T_c S
            yfield = Y - (pos * Y).sum(-1)[:, None] * pos
            phiy = (phi_j * yfield[:, None, :]).sum(-1)
            d_phiy = phiy.derivative(0).value @ P.T
            d_y = yfield.derivative(0).value @ P.T
            lhs = d_phiy - d_y @ phi0.T
            rhs = np.outer(Y @ X, xi0) - np.outer(Y @ eta0, X)
            res_phi = max(res_phi, np.abs(lhs - rhs).max())
        out.append({"covariant_phi": res_phi, "covariant_reeb": res_xi})
    return out


def verify_structure(space: AmbientModel, points) -> dict[str, float]:
    """Max residual of the algebraic structure identities, and of the
    covariant-derivative identities when a classical tag is present, by
    identity; the jets of the covariant identities run for all ``points`` as
    one batch."""
    residuals: dict[str, float] = {}

    def keep(update):
        for k, v in update.items():
            residuals[k] = max(residuals.get(k, 0.0), float(v))

    if not len(points):
        return residuals
    ambs = [PointAmbient(space, x) for x in points]
    contact = space.kind == KIND_CONTACT
    projectors = [tangent_projector(space, x) if contact and space.backend == "embedded"
                  else None for x in points]
    covariant = [{}] * len(ambs)
    if space.tag is not None:
        if space.backend == "chart":
            covariant = _covariant_residuals_chart(space, ambs)
        elif contact and space.tag.family == SASAKI:
            covariant = _covariant_residuals_embedded(ambs, projectors)
    for amb, P, cov in zip(ambs, projectors, covariant):
        if contact:
            phi, xi = amb.structure
            keep(_algebraic_residuals_contact(amb.g, phi, xi, P))
        else:
            keep(_algebraic_residuals_complex(amb.g, amb.structure))
        keep(cov)
    return residuals
