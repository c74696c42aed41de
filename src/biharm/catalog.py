"""Built-in ambient models and immersions.

Ambient catalog:

=================== ===========================================================================
name                description
=================== ===========================================================================
flat_c2             flat C², constant complex structure, α = β = 0
cp2                 Fubini–Study chart, holomorphic sectional curvature `4*rho` (α = β = rho)
synthetic_complex   flat chart carrying constant α ≠ β (algebraic curvature only)
sasakian_r5         standard Sasakian R⁵, φ-sectional curvature −3 (f = (0, −1, −1))
sasakian_sphere_s5  unit S⁵ ⊂ R⁶ with its standard Sasakian structure (f = (1, 0, 0))
kenmotsu_hyperbolic warped product line ×ₑᵗ C², Kenmotsu with c = −1 (f = (−1, 0, 0))
cosymplectic_r5     flat product R⁴ × R, c = 0
=================== ===========================================================================

Entries are expression templates over named parameters, each declared with
its default in :data:`AMBIENTS` or :data:`IMMERSIONS`.  A scenario binds each
one to the default, unless the document's constants name it, unless the
model's own params do; a params name the entry does not declare is an error.
The chart ambients come from one builder per kind, :func:`_complex_chart` and
:func:`_contact_chart`; an immersion that reads nothing of its ambient is one
row of :data:`_FIXED`.
"""

from __future__ import annotations

import math
from functools import partial

from .ambient import (
    COMPLEX_SPACE_FORM,
    COSYMPLECTIC,
    KENMOTSU,
    KIND_COMPLEX,
    KIND_CONTACT,
    SASAKI,
    AmbientModel,
    ClassicalTag,
)
from .exprs import parse_expression
from .submanifold import Axis, ImmersionModel


class UndeclaredParameter(ValueError):
    """A params name that the catalog entry does not declare; ``name`` is it."""

    def __init__(self, entry: str, name: str, declared):
        super().__init__(f"{entry} declares no parameter {name!r} (it declares "
                         f"{', '.join(declared) or 'none'})")
        self.name = name


def _matrix(rows, params):
    return tuple(tuple(parse_expression(e, params) for e in row) for row in rows)


def _vector(entries, params):
    return tuple(parse_expression(e, params) for e in entries)


def _square(n, entries=None):
    """The n x n matrix of expression strings with ``entries`` ((row, column)
    -> expression) and "0" elsewhere; without entries, the identity."""
    if entries is None:
        entries = {(k, k): "1" for k in range(n)}
    return [[entries.get((i, j), "0") for j in range(n)] for i in range(n)]


def _turn(pairs):
    """The entries of the structure taking d/dx to d/dy and d/dy to -d/dx for
    each coordinate index pair (x, y)."""
    entries = {}
    for x, y in pairs:
        entries[y, x], entries[x, y] = "1", "-1"
    return entries


# -- chart ambients ------------------------------------------------------------

_C2 = ("x1", "y1", "x2", "y2")
_J_C2 = _square(4, _turn(((0, 1), (2, 3))))


def _complex_chart(name, coeffs, params, metric=None, tag=None):
    """A chart of C^2 with the standard J; ``metric`` as :func:`_square`'s entries."""
    return AmbientModel(
        name=name,
        kind=KIND_COMPLEX,
        backend="chart",
        dim=4,
        coords=_C2,
        metric=_matrix(_square(4, metric), _C2),
        cstruct=_matrix(_J_C2, _C2),
        coeffs=_vector(coeffs, _C2),
        tag=tag,
        bindings=params,
    )


def _flat_c2(params):
    return _complex_chart("flat_c2", ("0", "0"), params, tag=ClassicalTag(COMPLEX_SPACE_FORM, 0.0))


def _fubini_study():
    # Real components of ((1 + rho|z|^2) I - rho zbar z) / (1 + rho|z|^2)^2
    # in coordinates (x1, y1, x2, y2) with z_k = x_k + i y_k.
    w = "(1+rho*(x1^2+y1^2+x2^2+y2^2))"
    x = ["x1", "x2"]
    y = ["y1", "y2"]
    g = {}
    for i in range(4):
        for j in range(4):
            k, l = i // 2, j // 2
            ix, jx = i % 2 == 0, j % 2 == 0
            if ix == jx:  # x-x or y-y block
                delta = w if k == l else "0"
                g[i, j] = f"({delta}-rho*({x[k]}*{x[l]}+{y[k]}*{y[l]}))/{w}^2"
            elif ix:  # x_k with y_l
                g[i, j] = f"(-rho*({x[k]}*{y[l]}-{y[k]}*{x[l]}))/{w}^2"
            else:  # y_k with x_l
                g[i, j] = f"(-rho*({x[l]}*{y[k]}-{y[l]}*{x[k]}))/{w}^2"
    return g


def _cp2(params):
    rho = params["rho"]
    if rho <= 0.0:
        raise ValueError("cp2 needs rho > 0")
    return _complex_chart("cp2", ("rho", "rho"), params, _fubini_study(),
                          ClassicalTag(COMPLEX_SPACE_FORM, rho))


def _synthetic_complex(params):
    return _complex_chart("synthetic_complex", ("alpha", "beta"), params)


def _contact_chart(name, coords, phi, reeb, coeffs, tag, params, metric=None):
    """A chart of R^5; ``phi`` and ``metric`` as :func:`_square`'s entries."""
    return AmbientModel(
        name=name,
        kind=KIND_CONTACT,
        backend="chart",
        dim=5,
        coords=coords,
        metric=_matrix(_square(5, metric), coords),
        phi=_matrix(_square(5, phi), coords),
        reeb=_vector(reeb, coords),
        coeffs=_vector(coeffs, coords),
        tag=tag,
        bindings=params,
    )


_R5 = ("x1", "x2", "y1", "y2", "z")


def _sasakian_r5(params):
    g = {(k, k): "1/4" for k in (2, 3, 4)}
    for i in range(2):
        for j in range(2):
            g[i, j] = f"({int(i == j)}+y{i+1}*y{j+1})/4"
        g[i, 4] = g[4, i] = f"-y{i+1}/4"
    # phi dx_i = -dy_i, phi dy_i = dx_i + y_i dz, phi dz = 0
    phi = _turn(((2, 0), (3, 1))) | {(4, 2): "y1", (4, 3): "y2"}
    return _contact_chart("sasakian_r5", _R5, phi, ("0", "0", "0", "0", "2"), ("0", "-1", "-1"),
                          ClassicalTag(SASAKI, -3.0), params, g)


def _cosymplectic_r5(params):
    return _contact_chart("cosymplectic_r5", _R5, _turn(((0, 2), (1, 3))),
                          ("0", "0", "0", "0", "1"), ("0", "0", "0"),
                          ClassicalTag(COSYMPLECTIC, 0.0), params)


def _kenmotsu_hyperbolic(params):
    g = {(0, 0): "1"} | {(k, k): "exp(2*t)" for k in range(1, 5)}
    return _contact_chart("kenmotsu_hyperbolic", ("t", "x1", "y1", "x2", "y2"),
                          _turn(((1, 2), (3, 4))), ("1", "0", "0", "0", "0"), ("-1", "0", "0"),
                          ClassicalTag(KENMOTSU, -1.0), params, g)


def _sasakian_sphere_s5(params):
    coords = tuple(f"p{a}" for a in range(1, 7))
    # complex structure of R^6 = C^3 pairing (p1,p2), (p3,p4), (p5,p6)
    j0 = _square(6, _turn(((0, 1), (2, 3), (4, 5))))
    j0p = ["-p2", "p1", "-p4", "p3", "-p6", "p5"]
    xi = [f"-({e})" for e in j0p]  # xi = -J0 p
    # phi X = J0 X - <X, xi> p restricted to the tangent space of the sphere
    phi = [[f"{j0[a][b]}-p{a+1}*({xi[b]})" for b in range(6)] for a in range(6)]
    return AmbientModel(
        name="sasakian_sphere_s5",
        kind=KIND_CONTACT,
        backend="embedded",
        dim=5,
        coords=coords,
        phi=_matrix(phi, coords),
        reeb=_vector(tuple(xi), coords),
        coeffs=_vector(("1", "0", "0"), coords),
        normals=(_vector(coords, coords),),
        tag=ClassicalTag(SASAKI, 1.0),
    )


# name -> (builder, declared parameters with their defaults)
AMBIENTS = {
    "flat_c2": (_flat_c2, {}),
    "cp2": (_cp2, {"rho": 1.0}),
    "synthetic_complex": (_synthetic_complex, {"alpha": 1.0, "beta": -0.5}),
    "sasakian_r5": (_sasakian_r5, {}),
    "cosymplectic_r5": (_cosymplectic_r5, {}),
    "kenmotsu_hyperbolic": (_kenmotsu_hyperbolic, {}),
    "sasakian_sphere_s5": (_sasakian_sphere_s5, {}),
}


def _entry(entries: dict, kind: str, name: str, params: dict | None):
    """The builder of catalog entry ``name`` and its parameters: the declared
    defaults under ``params``, which may name only declared parameters."""
    if name not in entries:
        raise KeyError(f"unknown {kind} catalog entry {name!r}")
    build, defaults = entries[name]
    undeclared = sorted(set(params or {}) - set(defaults))
    if undeclared:
        raise UndeclaredParameter(name, undeclared[0], defaults)
    return build, {**defaults, **{k: float(v) for k, v in (params or {}).items()}}


def ambient(name: str, params: dict | None = None) -> AmbientModel:
    build, params = _entry(AMBIENTS, "ambient", name, params)
    return build(params)


# -- immersions ----------------------------------------------------------------

def _immersion(name, space, params, components, axes):
    expected = space.rep_dim
    if len(components) != expected:
        raise ValueError(
            f"{name}: {len(components)} components for ambient of representation dimension {expected}"
        )
    pnames = tuple(f"u{i+1}" for i in range(len(axes)))
    return ImmersionModel(
        name=name,
        dim=len(axes),
        params=pnames,
        components=tuple(parse_expression(c, pnames) for c in components),
        domain=tuple(axes),
        bindings=params,
    )


TWO_PI = 2.0 * math.pi
_ARC = Axis(0.5, 2.6, 2)  # a polar angle short of both poles


def _loop(lo, samples):
    return Axis(lo, lo + TWO_PI, samples, periodic=True)


# name -> (components, axes, declared parameters with their defaults) of the
# immersions that read nothing of their ambient
_FIXED = {
    "affine_plane": (
        ("u1", "u2", "0", "0"),
        (Axis(-1.0, 1.0, 2), Axis(-1.0, 1.0, 2)), {}),
    "round_hypersphere": (
        ("r*cos(u1)", "r*sin(u1)*cos(u2)", "r*sin(u1)*sin(u2)*cos(u3)",
         "r*sin(u1)*sin(u2)*sin(u3)"),
        (_ARC, _ARC, _loop(0.3, 3)), {"r": 1.0}),
    "product_torus": (
        ("a*cos(u1)", "a*sin(u1)", "b*cos(u2)", "b*sin(u2)"),
        (_loop(0.3, 3), _loop(0.9, 3)), {"a": 1.0, "b": 1.0}),
    "geodesic_sphere_cp2": (
        ("tan(r)*cos(u1)*cos(u2)", "tan(r)*cos(u1)*sin(u2)", "tan(r)*sin(u1)*cos(u3)",
         "tan(r)*sin(u1)*sin(u3)"),
        (Axis(0.35, 1.2, 2), _loop(0.4, 2), _loop(1.1, 2)), {"r": 0.5}),
    "circle": (
        ("r*cos(u1)", "r*sin(u1)", "0", "0"),
        (_loop(0.2, 4),), {"r": 1.0}),
    "helix": (
        ("a*cos(u1)", "a*sin(u1)", "b*u1", "0"),
        (Axis(0.0, 6.0, 4),), {"a": 1.0, "b": 0.5}),
    "small_hypersphere": (
        ("rho*cos(u1)", "rho*sin(u1)*cos(u2)", "rho*sin(u1)*sin(u2)*cos(u3)",
         "rho*sin(u1)*sin(u2)*sin(u3)*cos(u4)", "rho*sin(u1)*sin(u2)*sin(u3)*sin(u4)",
         "sqrt(1-rho^2)"),
        (_ARC, _ARC, _ARC, _loop(0.45, 2)), {"rho": 0.7071067811865476}),
    "clifford_torus_s5": (
        ("cos(theta)*cos(u1)", "cos(theta)*sin(u1)", "sin(theta)*cos(u2)",
         "sin(theta)*sin(u2)*cos(u3)", "sin(theta)*sin(u2)*sin(u3)*cos(u4)",
         "sin(theta)*sin(u2)*sin(u3)*sin(u4)"),
        (_loop(0.35, 2), _ARC, _ARC, _loop(0.8, 2)), {"theta": math.pi / 4.0}),
}


def _hyperplane_y1(space, params):
    if "y1" not in space.coords:
        raise ValueError("hyperplane_y1 needs an ambient with a y1 coordinate")
    comps, k = [], 0
    for c in space.coords:
        if c == "y1":
            comps.append("0")
        else:
            k += 1
            comps.append(f"u{k}")
    axes = tuple(Axis(-0.8, 0.8, 2) for _ in range(k))
    return _immersion("hyperplane_y1", space, params, tuple(comps), axes)


def _graph_surface(space, params):
    if "y1" not in space.coords:
        raise ValueError("graph_surface needs an ambient with a y1 coordinate")
    graph = {"x1": "u1", "x2": "u2", "y1": "u1^2"}
    comps = tuple(graph.get(c, "0") for c in space.coords)
    axes = (Axis(-0.8, 0.8, 3), Axis(-0.8, 0.8, 3))
    return _immersion("graph_surface", space, params, comps, axes)


# name -> (builder, declared parameters with their defaults)
IMMERSIONS = {
    **{name: (partial(_immersion, name, components=comps, axes=axes), defaults)
       for name, (comps, axes, defaults) in _FIXED.items()},
    "hyperplane_y1": (_hyperplane_y1, {}),
    "graph_surface": (_graph_surface, {}),
}


def immersion(name: str, space: AmbientModel, params: dict | None = None) -> ImmersionModel:
    build, params = _entry(IMMERSIONS, "immersion", name, params)
    return build(space, params)
