"""Shared test oracles.

The finite-difference helpers here are deliberately independent of the jet
implementation: they difference plain evaluations of the function under
test.  ``fd_partial`` runs the differencing in mpmath's extended precision
(central differences with Richardson extrapolation, step 1e-3), so third
and fourth partials are still good to ~1e-10 where double precision would
drown in roundoff.  The polynomial oracle differentiates coefficient
dictionaries symbolically.
"""

from __future__ import annotations

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
from biharm.jets import Jet, embed, extract, jet_matrix_inverse, stack

mp.mp.dps = 40


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
