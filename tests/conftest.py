"""Shared test oracles.

The finite-difference helpers here are deliberately independent of the jet
implementation: they difference plain evaluations of the function under
test.  ``fd_partial`` runs the differencing in mpmath's extended precision
(central differences with Richardson extrapolation, step 1e-3), so third
and fourth partials are still good to ~1e-10 where double precision would
drown in roundoff.  The polynomial oracle differentiates coefficient
dictionaries symbolically.  ``WITNESSES`` holds a proper-biharmonic
example of each particular case of the paper that the catalog lacks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mpmath as mp
import numpy as np

from biharm.ambient import (
    AmbientModel,
    GeometryError,
    christoffel_from_metric_jets,
    metric_at,
    riemann_from_christoffel,
    tangent_projector,
)
from biharm.jets import _CHUNK_TERMS, Jet, embed, extract, jet_matrix_inverse, stack
from biharm.scenario import GEOMETRY, PSEUDO, RELATIONS, RESIDUALS, SCALAR
from biharm.structure import DecompositionOperators

mp.mp.dps = 40

# every per-sample quantity a grid run can compute
QUANTITIES = frozenset((GEOMETRY, RESIDUALS, SCALAR, RELATIONS, PSEUDO))


def central_diff(f, x, h):
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4 * d2 - d1) / 3


def fd_partial(f, point, alpha, h: float = 1e-3) -> float:
    """Partial derivative of multi-index ``alpha`` by nested central
    differences of the plain evaluation, in extended precision."""
    point = [mp.mpf(repr(float(x))) for x in point]
    h = mp.mpf(repr(float(h)))

    def wrapped(pt):
        return mp.mpf(f(pt))

    g = wrapped
    for var, count in enumerate(alpha):
        for _ in range(count):
            g = _diff_in(g, var, h)
    return float(g(point))


def _diff_in(f, var, h):
    def df(pt):
        def g(x):
            q = list(pt)
            q[var] = x
            return f(q)

        return central_diff(g, pt[var], h)

    return df


# -- dense polynomial oracle ---------------------------------------------------


def poly_eval(coeffs: dict, point) -> float:
    total = 0.0
    for mono, c in coeffs.items():
        term = c
        for x, k in zip(point, mono):
            term *= x**k
        total += term
    return total


def poly_diff(coeffs: dict, var: int) -> dict:
    out = {}
    for mono, c in coeffs.items():
        if mono[var] == 0:
            continue
        new = list(mono)
        new[var] -= 1
        out[tuple(new)] = out.get(tuple(new), 0.0) + c * mono[var]
    return out


def poly_partial(coeffs: dict, alpha, point) -> float:
    for var, count in enumerate(alpha):
        for _ in range(count):
            coeffs = poly_diff(coeffs, var)
    return poly_eval(coeffs, point)


def random_poly(rng: np.random.RandomState, nvars: int, degree: int = 4) -> dict:
    from itertools import combinations_with_replacement

    coeffs = {}
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), total):
            mono = [0] * nvars
            for v in combo:
                mono[v] += 1
            if rng.rand() < 0.55:
                coeffs[tuple(mono)] = float(rng.uniform(-2.0, 2.0))
    coeffs.setdefault((0,) * nvars, 1.0)
    return coeffs


def poly_to_source(coeffs: dict, params) -> str:
    parts = []
    for mono, c in sorted(coeffs.items()):
        term = [repr(c)]
        for name, k in zip(params, mono):
            if k == 1:
                term.append(name)
            elif k > 1:
                term.append(f"{name}^{k}")
        parts.append("*".join(term))
    return " + ".join(parts) if parts else "0"


def riemann_from_metric_jets(g) -> np.ndarray:
    """Riemann tensor values of the metric given by jets of order >= 2."""
    gamma = christoffel_from_metric_jets(g)
    return riemann_from_christoffel(gamma.value, gamma.gradient().value)


def full_chart_calc(space: AmbientModel, pos):
    """``g`` and ``gamma_t`` of a chart calculus along the immersion jets
    ``pos``, over the full (m + d)-variable augmented jet space, with the
    Christoffel upper triangle and the precontraction each taken as one
    product: the reference that the first-order displacement space must
    reproduce bitwise."""
    m, d, order = pos.nvars, space.dim, pos.order
    disp = stack([Jet.variable(m + d, order, m + a, 0.0) for a in range(d)])
    aug = embed(pos, disp.space) + disp
    g_aug = space.jets("metric", [aug[..., a] for a in range(d)])
    g = extract(g_aug, m, order)
    dg = stack([extract(g_aug, m, order - 1, extra=m + c) for c in range(d)], axis=-3)
    ginv = jet_matrix_inverse(g.truncate(order - 1))
    low = (dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg) * 0.5
    a, b = np.triu_indices(d)
    upper = (ginv[..., :, :, None] * low[..., None, :, a, b]).sum(-2)
    out = np.empty(upper.shape[:-2] + (d, d, d, upper.coeffs.shape[-1]))
    out[..., :, a, b, :] = upper.coeffs
    out[..., :, b, a, :] = upper.coeffs
    gamma = Jet(upper.space, out)
    T = pos.gradient(axis=-2)
    return g, (gamma[..., None, :, :, :] * T[..., :, None, :, None]).sum(-2)


def fresh_offsets_mul(sp, a, b) -> np.ndarray:
    """``sp.mul(a, b)`` with the ``bincount`` offsets of every chunk built
    afresh, from operands copied at full broadcast size: the reference that
    the kernel's cached offsets must reproduce bitwise."""
    out, ia, ib, w = sp.mul_table()
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    rows, step = math.prod(shape), max(1, _CHUNK_TERMS // len(out))
    a = np.broadcast_to(a, shape + a.shape[-1:]).reshape(rows, -1)
    b = np.broadcast_to(b, shape + b.shape[-1:]).reshape(rows, -1)
    res = np.empty((rows, sp.size))
    for i in range(0, rows, step):
        terms = a[i:i + step].take(ia, axis=-1) * b[i:i + step].take(ib, axis=-1)
        terms *= w
        n = len(terms)
        offsets = (np.arange(0, n * sp.size, sp.size)[:, None] + out).ravel()
        res[i:i + n] = np.bincount(offsets, weights=terms.ravel(),
                                   minlength=n * sp.size).reshape(n, sp.size)
    return res.reshape(shape + (sp.size,))


def full_second_fundamental(calc, coeffs, frames, normals):
    """nabla_{X_i} X_j and the normal components of B(X_i, X_j) on every
    pair (i, j) at the order of ``coeffs``, each as one product over the
    (m, m) block: the reference for the diagonal jets and the values that
    ``point_geometry`` builds."""
    nabla = (coeffs[..., :, :, None, None] * calc.covd(frames)[..., None, :, :, :]).sum(-3)
    return nabla, calc.inner(normals[..., :, None, None, :], nabla[..., None, :, :, :])


def gauss_einsum(pg) -> np.ndarray:
    """The ambient term sum_ij R(X_i, X_j, X_j, X_i) of the Gauss-equation
    scalar curvature as one 5-operand einsum over the tangent frame: the
    reference for the pairwise chain of ``scalar_curvature``."""
    frame = pg.tangent_frame
    return np.einsum("...ia,...ix,...jy,...jz,...xyza->...", frame @ pg.ambient.g, frame,
                     frame, frame, pg.ambient.curvature["combined"])


def random_orthonormal_frames(space: AmbientModel, x, m: int, rng) -> tuple:
    """A random metric-orthonormal splitting at ``x``."""
    g = metric_at(space, x)
    d = space.rep_dim
    raw = rng.standard_normal((d, d))
    if space.backend == "embedded":
        raw = raw @ tangent_projector(space, x).T
    frames = []
    for v in raw:
        w = v.copy()
        for f in frames:
            w = w - (w @ g @ f) * f
        n = float(np.sqrt(w @ g @ w))
        if n > 1e-6:
            frames.append(w / n)
        if len(frames) == space.dim:
            break
    if len(frames) < space.dim:
        raise GeometryError("could not build random frames")
    frames = np.array(frames)
    return frames[:m], frames[m:]


def reeb_tangent_hypersurface_identities(ops: DecompositionOperators):
    """(|P t|, |N t + Id|): both must vanish on a hypersurface with tangent Reeb field."""
    pt = ops.tt @ ops.nt
    nt_plus = ops.tn @ ops.nt + np.eye(ops.codim)
    return float(np.linalg.norm(pt)), float(np.linalg.norm(nt_plus))


DATA = Path(__file__).parent / "data"


def torus_h_norm(radii) -> float:
    """|H| of a Legendre torus of S^5 that is linear in the angles of the torus
    {|z_k| = r_k} of C^3 (``radii``, squares summing to 1), and of its image
    in CP^2(4), a Lagrangian torus.  The angle torus is flat, the Legendre
    torus is totally geodesic in it, and its unit normal there is along the
    Hopf circle, a geodesic of S^5.  So 2H is the trace over the angle torus
    of its second fundamental form in S^5: sum_k (3 r_k - 1/r_k) times the
    k-th unit radial vector."""
    return 0.5 * math.sqrt(sum((3.0 * r - 1.0 / r) ** 2 for r in radii))


@dataclass(frozen=True)
class Witness:
    """A proper-biharmonic example of one particular case of the paper (after
    Sasahara, Glasgow Math. J. 49, 2007, and Publ. Math. Debrecen 67, 2005):
    a scenario document with ``parameter`` at ``value``, |H| as a function of
    that parameter, a ``near_miss`` value at which it is not biharmonic, the
    branch that each sample reports, and the expected status of each check
    named in ``statuses`` when all eight run."""
    doc: dict
    parameter: str
    value: float
    near_miss: float
    h_norm: Callable[[float], float]
    branch: str
    statuses: dict


_LOOP = {"axes": [{"lo": 0.2, "hi": 0.2 + 2.0 * math.pi, "samples": 4, "periodic": True}]}
_TORI = {"bound": "WithinBound", "pseudo_umbilical": "violated"}   # neither is pseudo-umbilical
_CIRCLES = {"bound": "NotApplicable", "pseudo_umbilical": "ok"}

WITNESSES = {
    # a geodesic circle of radius t = atan(r) in a CP^1(4): kappa = 2 cot 2t
    "holomorphic_circle": Witness(
        {"ambient": {"catalog": "cp2"},
         "immersion": {"catalog": "circle", "params": {"r": math.tan(math.pi / 8.0)}}},
        "r", math.tan(math.pi / 8.0), 0.3, lambda r: (1.0 - r * r) / r, "curve", _CIRCLES),
    # a geodesic circle of radius t = atan(a) in an RP^2(1): kappa = cot t
    "totally_real_circle": Witness(
        {"ambient": {"catalog": "cp2"},
         "immersion": {"params": ["u1"], "components": ["a*cos(u1)", "0", "a*sin(u1)", "0"],
                       "domain": _LOOP},
         "constants": {"a": 1.0}},
        "a", 1.0, 0.9, lambda a: 1.0 / a, "curve", _CIRCLES),
    # (e^{i u1}, b e^{i u2}) in the affine chart: radii (1, 1, b)/sqrt(2 + b^2)
    "lagrangian_torus": Witness(
        json.loads((DATA / "lagrangian_torus_cp2.json").read_text()),
        "b", math.sqrt((7.0 - math.sqrt(41.0)) / 2.0), 0.6,
        lambda b: torus_h_norm(np.array([1.0, 1.0, b]) / math.sqrt(2.0 + b * b)),
        "lagrangian_surface", _TORI),
    # a circle of radius rho in a great S^2 of S^5: kappa = sqrt(1/rho^2 - 1)
    "s5_circle": Witness(
        {"ambient": {"catalog": "sasakian_sphere_s5"},
         "immersion": {"params": ["u1"],
                       "components": ["rho*cos(u1)", "rho*sin(u1)", "sqrt(1 - rho^2)",
                                      "0", "0", "0"],
                       "domain": _LOOP},
         "constants": {"rho": 2.0**-0.5}},
        "rho", 2.0**-0.5, 0.5, lambda rho: math.sqrt(1.0 / rho**2 - 1.0), "anti_invariant",
        _CIRCLES),
    # the flat Legendre torus (s e^{i t1}, s e^{i t2}, sqrt(1 - 2 s^2) e^{i t3}),
    # t1 = u1 + (1 - 2 s^2) u2, t2 = -u1 + (1 - 2 s^2) u2, t3 = -2 s^2 u2;
    # minimal at s = 1/sqrt(3)
    "legendre_torus": Witness(
        json.loads((DATA / "legendre_torus_s5.json").read_text()),
        "s", 0.5, 0.45, lambda s: torus_h_norm((s, s, math.sqrt(1.0 - 2.0 * s * s))),
        "xi_normal", _TORI),
}
