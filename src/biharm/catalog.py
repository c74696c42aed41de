"""Built-in ambient models and immersions.

Ambient catalog:

================== ============================================================
flat_c2            flat C^2 chart, constant complex structure, alpha = beta = 0
cp2                Fubini-Study chart of CP^2 with holomorphic sectional
                   curvature 4*rho (alpha = beta = rho), identity metric at 0
synthetic_complex  flat R^4 chart with constant alpha != beta; algebraic
                   curvature only, used for pipeline tests
sasakian_r5        standard Sasakian structure on R^5, phi-sectional
                   curvature -3 (f1 = 0, f2 = f3 = -1)
sasakian_sphere_s5 unit S^5 in R^6 with its standard Sasakian structure,
                   phi-sectional curvature 1 (f1 = 1, f2 = f3 = 0)
kenmotsu_hyperbolic warped product line x_{e^t} C^2 (hyperbolic space),
                   Kenmotsu with c = -1 (f1 = -1, f2 = f3 = 0)
cosymplectic_r5    flat R^5 product structure, c = 0 (all coefficients 0)
================== ============================================================

Entries are expression templates over named parameters, each declared with
its default in :data:`AMBIENTS` or :data:`IMMERSIONS`.  A scenario binds each
one to the default, unless the document's constants name it, unless the
model's own params do; a params name the entry does not declare is an error.
"""

from __future__ import annotations

import math

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


def _pexpr(source, params):
    return parse_expression(source, params)


def _matrix(rows, params):
    return tuple(tuple(_pexpr(e, params) for e in row) for row in rows)


def _vector(entries, params):
    return tuple(_pexpr(e, params) for e in entries)


_J_STANDARD = (
    ("0", "-1", "0", "0"),
    ("1", "0", "0", "0"),
    ("0", "0", "0", "-1"),
    ("0", "0", "1", "0"),
)


def _flat_c2(params):
    coords = ("x1", "y1", "x2", "y2")
    eye = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    return AmbientModel(
        name="flat_c2",
        kind=KIND_COMPLEX,
        backend="chart",
        dim=4,
        coords=coords,
        metric=_matrix(eye, coords),
        cstruct=_matrix(_J_STANDARD, coords),
        coeffs=_vector(("0", "0"), coords),
        tag=ClassicalTag(COMPLEX_SPACE_FORM, 0.0),
    )


def _fubini_study_rows():
    # Real components of ((1 + rho|z|^2) I - rho zbar z) / (1 + rho|z|^2)^2
    # in coordinates (x1, y1, x2, y2) with z_k = x_k + i y_k.
    w = "(1+rho*(x1^2+y1^2+x2^2+y2^2))"
    rows = [[None] * 4 for _ in range(4)]
    x = ["x1", "x2"]
    y = ["y1", "y2"]
    for i in range(4):
        for j in range(4):
            k, l = i // 2, j // 2
            ix, jx = i % 2 == 0, j % 2 == 0
            if ix == jx:  # x-x or y-y block
                delta = w if k == l else "0"
                rows[i][j] = f"({delta}-rho*({x[k]}*{x[l]}+{y[k]}*{y[l]}))/{w}^2"
            elif ix:  # x_k with y_l
                rows[i][j] = f"(-rho*({x[k]}*{y[l]}-{y[k]}*{x[l]}))/{w}^2"
            else:  # y_k with x_l
                rows[i][j] = f"(-rho*({x[l]}*{y[k]}-{y[l]}*{x[k]}))/{w}^2"
    return rows


def _cp2(params):
    rho = params["rho"]
    if rho <= 0.0:
        raise ValueError("cp2 needs rho > 0")
    coords = ("x1", "y1", "x2", "y2")
    return AmbientModel(
        name="cp2",
        kind=KIND_COMPLEX,
        backend="chart",
        dim=4,
        coords=coords,
        metric=_matrix(_fubini_study_rows(), coords),
        cstruct=_matrix(_J_STANDARD, coords),
        coeffs=_vector(("rho", "rho"), coords),
        tag=ClassicalTag(COMPLEX_SPACE_FORM, rho),
        bindings=params,
    )


def _synthetic_complex(params):
    coords = ("x1", "y1", "x2", "y2")
    eye = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    return AmbientModel(
        name="synthetic_complex",
        kind=KIND_COMPLEX,
        backend="chart",
        dim=4,
        coords=coords,
        metric=_matrix(eye, coords),
        cstruct=_matrix(_J_STANDARD, coords),
        coeffs=_vector(("alpha", "beta"), coords),
        bindings=params,
    )


def _sasakian_r5(params):
    coords = ("x1", "x2", "y1", "y2", "z")
    g = [["0"] * 5 for _ in range(5)]
    for i, xi in enumerate(("x1", "x2")):
        for j, xj in enumerate(("x1", "x2")):
            delta = "1" if i == j else "0"
            g[i][j] = f"({delta}+y{i+1}*y{j+1})/4"
        g[i][4] = g[4][i] = f"-y{i+1}/4"
    g[2][2] = g[3][3] = "1/4"
    g[4][4] = "1/4"
    phi = [["0"] * 5 for _ in range(5)]
    # phi dx_i = -dy_i, phi dy_i = dx_i + y_i dz, phi dz = 0
    phi[2][0] = "-1"
    phi[3][1] = "-1"
    phi[0][2] = "1"
    phi[1][3] = "1"
    phi[4][2] = "y1"
    phi[4][3] = "y2"
    return AmbientModel(
        name="sasakian_r5",
        kind=KIND_CONTACT,
        backend="chart",
        dim=5,
        coords=coords,
        metric=_matrix(g, coords),
        phi=_matrix(phi, coords),
        reeb=_vector(("0", "0", "0", "0", "2"), coords),
        coeffs=_vector(("0", "-1", "-1"), coords),
        tag=ClassicalTag(SASAKI, -3.0),
    )


def _cosymplectic_r5(params):
    coords = ("x1", "x2", "y1", "y2", "z")
    eye = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
    phi = [["0"] * 5 for _ in range(5)]
    phi[2][0] = "1"
    phi[3][1] = "1"
    phi[0][2] = "-1"
    phi[1][3] = "-1"
    return AmbientModel(
        name="cosymplectic_r5",
        kind=KIND_CONTACT,
        backend="chart",
        dim=5,
        coords=coords,
        metric=_matrix(eye, coords),
        phi=_matrix(phi, coords),
        reeb=_vector(("0", "0", "0", "0", "1"), coords),
        coeffs=_vector(("0", "0", "0"), coords),
        tag=ClassicalTag(COSYMPLECTIC, 0.0),
    )


def _kenmotsu_hyperbolic(params):
    coords = ("t", "x1", "y1", "x2", "y2")
    g = [["0"] * 5 for _ in range(5)]
    g[0][0] = "1"
    for i in range(1, 5):
        g[i][i] = "exp(2*t)"
    phi = [["0"] * 5 for _ in range(5)]
    phi[2][1] = "1"
    phi[4][3] = "1"
    phi[1][2] = "-1"
    phi[3][4] = "-1"
    return AmbientModel(
        name="kenmotsu_hyperbolic",
        kind=KIND_CONTACT,
        backend="chart",
        dim=5,
        coords=coords,
        metric=_matrix(g, coords),
        phi=_matrix(phi, coords),
        reeb=_vector(("1", "0", "0", "0", "0"), coords),
        coeffs=_vector(("-1", "0", "0"), coords),
        tag=ClassicalTag(KENMOTSU, -1.0),
    )


def _sasakian_sphere_s5(params):
    coords = tuple(f"p{a}" for a in range(1, 7))
    # complex structure of R^6 = C^3 pairing (p1,p2), (p3,p4), (p5,p6)
    j0 = [[0] * 6 for _ in range(6)]
    for k in range(3):
        j0[2 * k + 1][2 * k] = 1
        j0[2 * k][2 * k + 1] = -1
    j0p = ["-p2", "p1", "-p4", "p3", "-p6", "p5"]
    xi = [f"-({e})" for e in j0p]  # xi = -J0 p
    phi = [[None] * 6 for _ in range(6)]
    # phi X = J0 X - <X, xi> p restricted to the tangent space of the sphere
    for a in range(6):
        for b in range(6):
            phi[a][b] = f"{j0[a][b]}-p{a+1}*({xi[b]})"
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
        raise ValueError(f"{name} declares no parameter {undeclared[0]!r}")
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


def _affine_plane(space, params):
    return _immersion(
        "affine_plane", space, params,
        ("u1", "u2", "0", "0"),
        (Axis(-1.0, 1.0, 2), Axis(-1.0, 1.0, 2)),
    )


def _round_hypersphere(space, params):
    comps = (
        "r*cos(u1)",
        "r*sin(u1)*cos(u2)",
        "r*sin(u1)*sin(u2)*cos(u3)",
        "r*sin(u1)*sin(u2)*sin(u3)",
    )
    axes = (Axis(0.5, 2.6, 2), Axis(0.5, 2.6, 2), Axis(0.3, 0.3 + TWO_PI, 3, periodic=True))
    return _immersion("round_hypersphere", space, params, comps, axes)


def _product_torus(space, params):
    comps = ("a*cos(u1)", "a*sin(u1)", "b*cos(u2)", "b*sin(u2)")
    axes = (Axis(0.3, 0.3 + TWO_PI, 3, periodic=True), Axis(0.9, 0.9 + TWO_PI, 3, periodic=True))
    return _immersion("product_torus", space, params, comps, axes)


def _geodesic_sphere_cp2(space, params):
    comps = (
        "tan(r)*cos(u1)*cos(u2)",
        "tan(r)*cos(u1)*sin(u2)",
        "tan(r)*sin(u1)*cos(u3)",
        "tan(r)*sin(u1)*sin(u3)",
    )
    axes = (
        Axis(0.35, 1.2, 2),
        Axis(0.4, 0.4 + TWO_PI, 2, periodic=True),
        Axis(1.1, 1.1 + TWO_PI, 2, periodic=True),
    )
    return _immersion("geodesic_sphere_cp2", space, params, comps, axes)


def _circle(space, params):
    comps = ("r*cos(u1)", "r*sin(u1)", "0", "0")
    return _immersion(
        "circle", space, params, comps, (Axis(0.2, 0.2 + TWO_PI, 4, periodic=True),)
    )


def _helix(space, params):
    comps = ("a*cos(u1)", "a*sin(u1)", "b*u1", "0")
    return _immersion("helix", space, params, comps, (Axis(0.0, 6.0, 4),))


def _small_hypersphere(space, params):
    comps = (
        "rho*cos(u1)",
        "rho*sin(u1)*cos(u2)",
        "rho*sin(u1)*sin(u2)*cos(u3)",
        "rho*sin(u1)*sin(u2)*sin(u3)*cos(u4)",
        "rho*sin(u1)*sin(u2)*sin(u3)*sin(u4)",
        "sqrt(1-rho^2)",
    )
    axes = (
        Axis(0.5, 2.6, 2),
        Axis(0.5, 2.6, 2),
        Axis(0.5, 2.6, 2),
        Axis(0.45, 0.45 + TWO_PI, 2, periodic=True),
    )
    return _immersion("small_hypersphere", space, params, comps, axes)


def _clifford_torus_s5(space, params):
    comps = (
        "cos(theta)*cos(u1)",
        "cos(theta)*sin(u1)",
        "sin(theta)*cos(u2)",
        "sin(theta)*sin(u2)*cos(u3)",
        "sin(theta)*sin(u2)*sin(u3)*cos(u4)",
        "sin(theta)*sin(u2)*sin(u3)*sin(u4)",
    )
    axes = (
        Axis(0.35, 0.35 + TWO_PI, 2, periodic=True),
        Axis(0.5, 2.6, 2),
        Axis(0.5, 2.6, 2),
        Axis(0.8, 0.8 + TWO_PI, 2, periodic=True),
    )
    return _immersion("clifford_torus_s5", space, params, comps, axes)


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
    comps = []
    for c in space.coords:
        if c == "x1":
            comps.append("u1")
        elif c == "x2":
            comps.append("u2")
        elif c == "y1":
            comps.append("u1^2")
        else:
            comps.append("0")
    axes = (Axis(-0.8, 0.8, 3), Axis(-0.8, 0.8, 3))
    return _immersion("graph_surface", space, params, tuple(comps), axes)


# name -> (builder, declared parameters with their defaults)
IMMERSIONS = {
    "affine_plane": (_affine_plane, {}),
    "round_hypersphere": (_round_hypersphere, {"r": 1.0}),
    "product_torus": (_product_torus, {"a": 1.0, "b": 1.0}),
    "geodesic_sphere_cp2": (_geodesic_sphere_cp2, {"r": 0.5}),
    "circle": (_circle, {"r": 1.0}),
    "helix": (_helix, {"a": 1.0, "b": 0.5}),
    "small_hypersphere": (_small_hypersphere, {"rho": 0.7071067811865476}),
    "clifford_torus_s5": (_clifford_torus_s5, {"theta": math.pi / 4.0}),
    "hyperplane_y1": (_hyperplane_y1, {}),
    "graph_surface": (_graph_surface, {}),
}


def immersion(name: str, space: AmbientModel, params: dict | None = None) -> ImmersionModel:
    build, params = _entry(IMMERSIONS, "immersion", name, params)
    return build(space, params)
