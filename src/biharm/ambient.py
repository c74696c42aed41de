"""Ambient space-form models.

Two kinds of ambient space are supported: generalized complex space forms
(4-dimensional almost Hermitian, curvature alpha*R_const + beta*R_complex)
and generalized Sasakian space forms (odd-dimensional almost contact metric,
curvature f1*R_const + f2*R_reeb + f3*R_fundform).  The curvature tensor is
always the algebraic combination of these generalized curvature terms with
the model's coefficient functions; agreement with the Riemann tensor of the
chart metric is a test property of catalog models, never a runtime path.

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
    ``cstruct``, ``phi``, ``reeb``, ``coeffs``, ``embed_map``, ``normals``)
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
    embed_map: tuple | None = None  # embedded: own-chart parametrization into R^D
    embed_params: tuple[str, ...] | None = None
    normals: tuple | None = None    # embedded: normal fields of N in R^D
    tag: ClassicalTag | None = None
    bindings: Bindings = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == KIND_COMPLEX and self.dim != 4:
            raise GeometryError("generalized complex space forms are 4-dimensional")
        if self.kind == KIND_CONTACT and self.dim % 2 == 0:
            raise GeometryError("generalized Sasakian space forms are odd-dimensional")

    @property
    def rep_dim(self) -> int:
        """Dimension of the vector representation used for ambient tensors."""
        return self.dim if self.backend == "chart" else len(self.coords)


# -- pointwise tensors -------------------------------------------------------

def metric_at(space: AmbientModel, x) -> np.ndarray:
    """Metric matrix in the vector representation at ``x`` (floats)."""
    if space.backend == "embedded":
        return np.eye(space.rep_dim)
    g = space.values("metric", x)
    if np.linalg.eigvalsh(g).min() <= 0.0:
        raise GeometryError(f"metric not positive definite at {tuple(x)}")
    return g


def structure_at(space: AmbientModel, x):
    """Structure tensors at ``x``: J matrix, or (phi matrix, xi vector)."""
    if space.kind == KIND_COMPLEX:
        return space.values("cstruct", x)
    return space.values("phi", x), space.values("reeb", x)


def coefficients_at(space: AmbientModel, x) -> tuple[float, ...]:
    return tuple(float(c) for c in space.values("coeffs", x))


# -- jets of the metric and connection ---------------------------------------

def metric_jet(space: AmbientModel, x, order: int) -> Jet:
    """Jets of metric components at ``x``, as an (n, n) jet array; points
    ``x`` of shape S + (n,) give one (n, n) array per sample, in one pass.

    Chart backend: coordinates are the jet variables.  Embedded backend:
    ``x`` is a point of the model's own parametrization and the pullback
    metric is assembled from embedding jets one order higher.
    """
    if space.backend == "chart":
        g = space.jets("metric", seed_point(x, order))
        if np.linalg.eigvalsh(g.value).min() <= 0.0:
            raise GeometryError(f"metric not positive definite at {tuple(x)}")
        return g
    emb = space.jets("embed_map", seed_point(x, order + 1))
    tangents = emb.gradient(axis=-2)
    g = (tangents[..., :, None, :] * tangents[..., None, :, :]).sum(-1)
    if np.linalg.eigvalsh(g.value).min() <= 0.0:
        raise GeometryError(f"pullback metric degenerate at {tuple(x)}")
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
    if space.backend != "chart":
        raise GeometryError("christoffel_jet needs a chart backend")
    if order > 2:
        raise ValueError("christoffel jets supported up to order 2")
    return christoffel_from_metric_jets(metric_jet(space, x, order + 1))


def christoffel_point(space: AmbientModel, x) -> np.ndarray:
    """Gamma^c_ab at ``x``; points of shape S + (n,) give S + (n, n, n) from
    one batched metric jet."""
    return christoffel_jet(space, x, 0).value


def riemann_from_christoffel(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Riemann tensor values R[i,j,k,l]: R(e_i,e_j)e_k = sum_l R[i,j,k,l] e_l,
    from the Christoffel values ``gamma[c, a, b]`` and their partials
    ``dgamma[i, c, a, b]`` = d_i Gamma^c_ab at one point.

    Sign convention R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y].
    """
    return ((np.einsum("iljk->ijkl", dgamma) - np.einsum("jlik->ijkl", dgamma))
            + (np.einsum("lis,sjk->ijkl", gamma, gamma) - np.einsum("ljs,sik->ijkl", gamma, gamma)))


def riemann_from_metric_jets(g) -> np.ndarray:
    """Riemann tensor values of the metric given by jets of order >= 2."""
    gamma = christoffel_from_metric_jets(g)
    return riemann_from_christoffel(gamma.value, gamma.gradient().value)


def scalar_from_christoffel(g: np.ndarray, gamma: np.ndarray, dgamma: np.ndarray) -> float:
    """Scalar curvature at one point from the metric values ``g`` and the
    Christoffel values and partials (see :func:`riemann_from_christoffel`)."""
    ricci = np.einsum("ijki->jk", riemann_from_christoffel(gamma, dgamma))
    return float(np.einsum("jk,jk->", np.linalg.inv(g), ricci))


def scalar_from_metric_jets(g) -> float:
    """Scalar curvature of the metric given by jets of order >= 2."""
    g = stack(g)
    gamma = christoffel_from_metric_jets(g)
    return scalar_from_christoffel(g.value, gamma.value, gamma.gradient().value)


# -- algebraic curvature terms ------------------------------------------------

def curv_const_term(g, X, Y, Z):
    """Constant-sectional-curvature building block g(Y,Z)X - g(X,Z)Y."""
    return (Y @ g @ Z) * X - (X @ g @ Z) * Y


def curv_complex_term(g, J, X, Y, Z):
    """Complex-structure building block of holomorphic space-form curvature."""
    JX, JY, JZ = J @ X, J @ Y, J @ Z
    return (JY @ g @ Z) * JX - (JX @ g @ Z) * JY + 2.0 * (JY @ g @ X) * JZ


def curv_reeb_term(g, xi, X, Y, Z):
    """Reeb-direction building block of contact space-form curvature."""
    eta = g @ xi
    eX, eY, eZ = eta @ X, eta @ Y, eta @ Z
    return eX * eZ * Y - eY * eZ * X + (X @ g @ Z) * eY * xi - (Y @ g @ Z) * eX * xi


def curv_fundform_term(g, phi, X, Y, Z):
    """Fundamental-2-form building block of contact space-form curvature."""
    pX, pY, pZ = phi @ X, phi @ Y, phi @ Z

    def omega(A, B):  # Omega(A, B) = g(A, phi B)
        return A @ g @ (phi @ B)

    return omega(Z, Y) * pX - omega(Z, X) * pY + 2.0 * omega(X, Y) * pZ


class PointAmbient:
    """The ambient tensors at one point, each evaluated on first use and
    then kept: the metric ``g`` (checked positive definite), the curvature
    ``coeffs`` and the ``structure`` (J, or (phi, xi)).  A sample's readers
    share one snapshot, so each tensor runs its program once per point."""

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

    def curvature_parts(self, X, Y, Z) -> dict:
        """Each generalized curvature term, plus the coefficient-weighted sum."""
        g = self.g
        X, Y, Z = (np.asarray(v, dtype=float) for v in (X, Y, Z))
        coeffs = self.coeffs
        if self.space.kind == KIND_COMPLEX:
            J = self.structure
            parts = {
                "const": curv_const_term(g, X, Y, Z),
                "complex": curv_complex_term(g, J, X, Y, Z),
            }
            parts["combined"] = coeffs[0] * parts["const"] + coeffs[1] * parts["complex"]
        else:
            phi, xi = self.structure
            parts = {
                "const": curv_const_term(g, X, Y, Z),
                "reeb": curv_reeb_term(g, xi, X, Y, Z),
                "fundform": curv_fundform_term(g, phi, X, Y, Z),
            }
            parts["combined"] = (
                coeffs[0] * parts["const"] + coeffs[1] * parts["reeb"]
                + coeffs[2] * parts["fundform"]
            )
        return parts


def curvature_parts(space: AmbientModel, x, X, Y, Z) -> dict:
    """Each generalized curvature term at ``x``, plus the coefficient-weighted sum."""
    return PointAmbient(space, x).curvature_parts(X, Y, Z)


def curvature_apply(space: AmbientModel, x, X, Y, Z) -> np.ndarray:
    """The model's curvature tensor R(X, Y)Z at ``x`` (algebraic form)."""
    return curvature_parts(space, x, X, Y, Z)["combined"]


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

@dataclass
class StructureReport:
    name: str
    residuals: dict

    def max_residual(self) -> float:
        return max(self.residuals.values())

    def ok(self, tol: float) -> bool:
        return self.max_residual() <= tol


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


def verify_structure(space: AmbientModel, points) -> StructureReport:
    """Max residual of the algebraic structure identities, and of the
    covariant-derivative identities when a classical tag is present; the
    jets of the covariant identities run for all ``points`` as one batch."""
    residuals: dict[str, float] = {}

    def keep(update):
        for k, v in update.items():
            residuals[k] = max(residuals.get(k, 0.0), float(v))

    if not len(points):
        return StructureReport(space.name, residuals)
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
    return StructureReport(space.name, residuals)
