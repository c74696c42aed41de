"""Ambient models: metrics, connections, algebraic curvature, structure."""

import numpy as np
import pytest

from biharm import catalog
from biharm.ambient import (
    COSYMPLECTIC,
    KENMOTSU,
    SASAKI,
    ClassicalTag,
    GeometryError,
    PointAmbient,
    christoffel_jet,
    coefficients_at,
    coefficients_for_tag,
    curvature_parts,
    metric_at,
    metric_jet,
    structure_at,
    verify_structure,
)
from conftest import riemann_from_metric_jets


def test_tag_coefficients():
    assert coefficients_for_tag(ClassicalTag(SASAKI, 1.0)) == (1.0, 0.0, 0.0)
    assert coefficients_for_tag(ClassicalTag(SASAKI, -3.0)) == (0.0, -1.0, -1.0)
    assert coefficients_for_tag(ClassicalTag(KENMOTSU, -1.0)) == (-1.0, 0.0, 0.0)
    assert coefficients_for_tag(ClassicalTag(COSYMPLECTIC, 2.0)) == (0.5, 0.5, 0.5)


def test_metric_jet_flat_identity():
    flat = catalog.ambient("flat_c2")
    g = metric_jet(flat, (0.3, -0.2, 0.8, 0.1), 2)
    for i in range(4):
        for j in range(4):
            assert g[i][j].value == (1.0 if i == j else 0.0)
            assert np.abs(g[i][j].coeffs[1:]).max() == 0.0


def test_metric_jet_fubini_study_origin_identity():
    cp2 = catalog.ambient("cp2")
    g = metric_jet(cp2, (0.0, 0.0, 0.0, 0.0), 1)
    vals = np.array([[e.value for e in row] for row in g])
    assert np.abs(vals - np.eye(4)).max() < 1e-14


def test_metric_jet_sasakian_values():
    sr5 = catalog.ambient("sasakian_r5")
    g = metric_jet(sr5, (0.0, 0.0, 0.0, 0.0, 0.0), 1)
    idx = sr5.coords.index("z")
    assert g[idx][idx].value == pytest.approx(0.25)
    x = (0.4, -0.2, 0.7, 0.3, 0.1)
    gv = metric_at(sr5, x)
    # closed form: g = eta (x) eta + (dx^2 + dy^2)/4 with eta = (dz - y dx)/2
    y = [0.7, 0.3]
    assert gv[0][0] == pytest.approx(0.25 * (1 + y[0] ** 2))
    assert gv[0][4] == pytest.approx(-y[0] / 4.0)
    assert gv[4][4] == pytest.approx(0.25)


def test_christoffel_flat_zero_and_symmetry():
    flat = catalog.ambient("flat_c2")
    gam = christoffel_jet(flat, (0.2, 0.4, -0.1, 0.0), 1)
    for c in range(4):
        for a in range(4):
            for b in range(4):
                assert gam[c][a][b].value == 0.0

    sr5 = catalog.ambient("sasakian_r5")
    gam = christoffel_jet(sr5, (0.4, -0.2, 0.7, 0.3, 0.1), 1)
    for c in range(5):
        for a in range(5):
            for b in range(5):
                assert gam[c][a][b].value == pytest.approx(gam[c][b][a].value, abs=1e-14)


def test_christoffel_metric_compatibility():
    # nabla g = 0 reconstructed from Christoffel and metric jets
    sr5 = catalog.ambient("sasakian_r5")
    rng = np.random.RandomState(2)
    x = rng.uniform(-0.5, 0.5, 5)
    g = metric_jet(sr5, x, 1)
    gam = christoffel_jet(sr5, x, 0)
    gv = np.array([[e.value for e in row] for row in g])
    gamv = np.array([[[gam[c][a][b].value for b in range(5)] for a in range(5)]
                     for c in range(5)])
    worst = 0.0
    for c in range(5):
        for a in range(5):
            for b in range(5):
                dg = g[a][b].derivative(c).value
                dg -= np.dot(gamv[:, c, a], gv[:, b]) + np.dot(gamv[:, c, b], gv[a, :])
                worst = max(worst, abs(dg))
    assert worst < 1e-9


def test_christoffel_needs_chart():
    s5 = catalog.ambient("sasakian_sphere_s5")
    with pytest.raises(GeometryError):
        christoffel_jet(s5, (0.7, 1.1, 0.6, 2.0, 0.9), 0)


def test_christoffel_order_capped():
    flat = catalog.ambient("flat_c2")
    with pytest.raises(ValueError):
        christoffel_jet(flat, (0.0, 0.0, 0.0, 0.0), 3)


def test_degenerate_metric_raises():
    from biharm.scenario import load_scenario

    cfg = load_scenario({
        "ambient": {
            "kind": "generalized_complex", "backend": "chart", "dim": 4,
            "coordinates": ["x1", "y1", "x2", "y2"],
            "metric": [["x1", "0", "0", "0"], ["0", "1", "0", "0"],
                        ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
            "complex_structure": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                                   ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
            "coefficients": {"alpha": "0", "beta": "0"},
        },
        "immersion": {"catalog": "circle"},
    })
    with pytest.raises(GeometryError):
        metric_jet(cfg.ambient, (-1.0, 0.0, 0.0, 0.0), 1)


def test_curvature_const_term_orthonormal():
    flat = catalog.ambient("flat_c2")
    e1 = np.array([1.0, 0, 0, 0])
    e2 = np.array([0, 1.0, 0, 0])
    parts = curvature_parts(flat, (0, 0, 0, 0), e1, e2, e2)
    assert np.allclose(parts["const"], e1)


def test_curvature_complex_term_hand_value():
    # J e1 = e2, J e3 = e4, flat metric: R_complex(e1, e2) e1 = -3 e2
    flat = catalog.ambient("flat_c2")
    e1 = np.array([1.0, 0, 0, 0])
    e2 = np.array([0, 1.0, 0, 0])
    parts = curvature_parts(flat, (0, 0, 0, 0), e1, e2, e1)
    assert np.allclose(parts["complex"], -3.0 * e2)


def test_curvature_fundform_kills_reeb():
    sr5 = catalog.ambient("sasakian_r5")
    rng = np.random.RandomState(0)
    x = rng.uniform(-0.4, 0.4, 5)
    _, xi = structure_at(sr5, x)
    for _ in range(10):
        X, Y = rng.randn(2, 5)
        parts = curvature_parts(sr5, x, X, Y, xi)
        assert np.abs(parts["fundform"]).max() < 1e-12


def test_curvature_antisymmetry():
    rng = np.random.RandomState(4)
    for name in ("cp2", "sasakian_r5", "synthetic_complex"):
        space = catalog.ambient(name)
        x = rng.uniform(-0.4, 0.4, space.dim)
        for _ in range(10):
            X, Y, Z = rng.randn(3, space.dim)
            p1 = curvature_parts(space, x, X, Y, Z)
            p2 = curvature_parts(space, x, Y, X, Z)
            for key in p1:
                assert np.abs(p1[key] + p2[key]).max() < 1e-10


CHART_AMBIENTS = [pytest.param(name, {}, id=name) for name in sorted(catalog.AMBIENTS)
                  if catalog.ambient(name).backend == "chart" and name != "synthetic_complex"]


@pytest.mark.parametrize("name, params",
                         CHART_AMBIENTS + [pytest.param("cp2", {"rho": 0.55}, id="cp2-rho0.55")])
def test_fubini_study_certification(name, params):
    # every chart catalog ambient but synthetic_complex (algebraic curvature
    # only): the declared curvature tensor equals the Riemann tensor of the
    # chart metric, and the coefficients are those of the classical tag
    space = catalog.ambient(name, params)
    rng = np.random.RandomState(9)
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, space.dim)
        riem = riemann_from_metric_jets(metric_jet(space, x, 2))
        declared = PointAmbient(space, x).curvature["combined"]
        assert np.abs(riem - declared).max() <= 1e-12 * max(1.0, np.abs(riem).max())
        assert coefficients_at(space, x) == coefficients_for_tag(space.tag)


def test_sphere_gauss_curvature_matches_algebraic():
    # embedded S^5: Gauss equation of the round sphere in R^6 gives
    # <R(X,Y)Z,W> = <Y,Z><X,W> - <X,Z><Y,W>, the f1 = 1 algebraic form, on
    # tangent vectors X, Y, Z
    s5 = catalog.ambient("sasakian_sphere_s5")
    rng = np.random.RandomState(6)
    for _ in range(5):
        p = rng.randn(6)
        p /= np.linalg.norm(p)
        P = np.eye(6) - np.outer(p, p)
        gauss = np.einsum("jk,ia->ijka", P, P) - np.einsum("ik,ja->ijka", P, P)
        declared = np.einsum("xyza,xi,yj,zk->ijka", PointAmbient(s5, p).curvature["combined"],
                             P, P, P)
        assert np.abs(gauss - declared).max() <= 1e-12


@pytest.mark.parametrize("name,tol", [
    ("flat_c2", 1e-12),
    ("cp2", 1e-9),
    ("synthetic_complex", 1e-12),
    ("sasakian_r5", 1e-9),
    ("cosymplectic_r5", 1e-12),
    ("kenmotsu_hyperbolic", 1e-9),
])
def test_verify_structure_chart_models(name, tol):
    space = catalog.ambient(name)
    rng = np.random.RandomState(8)
    pts = [rng.uniform(-0.5, 0.5, space.dim) for _ in range(5)]
    residuals = verify_structure(space, pts)
    assert max(residuals.values()) <= tol, residuals


def test_verify_structure_embedded_sphere():
    s5 = catalog.ambient("sasakian_sphere_s5")
    rng = np.random.RandomState(8)
    pts = [v / np.linalg.norm(v) for v in rng.randn(5, 6)]
    residuals = verify_structure(s5, pts)
    assert max(residuals.values()) <= 1e-9, residuals
    assert "covariant_phi" in residuals
    assert "covariant_reeb" in residuals


def test_complex_dimension_enforced():
    from biharm.ambient import AmbientModel, KIND_COMPLEX

    with pytest.raises(GeometryError):
        AmbientModel(name="bad", kind=KIND_COMPLEX, backend="chart", dim=6,
                     coords=tuple("abcdef"), coeffs=())


def test_point_ambient_evaluates_each_tensor_once_on_first_use(monkeypatch):
    from collections import Counter

    from biharm.exprs import CompiledFields

    sr5 = catalog.ambient("sasakian_r5")
    runs = Counter()
    real = CompiledFields.values

    def counted(self, name, point):
        runs[name] += 1
        return real(self, name, point)

    monkeypatch.setattr(CompiledFields, "values", counted)
    x = (0.1, -0.2, 0.3, 0.05, 0.4)
    amb = PointAmbient(sr5, x)
    assert amb.coeffs == coefficients_at(sr5, x)
    assert set(runs) == {"coeffs"}  # nothing else is evaluated before its use
    rng = np.random.default_rng(3)
    for _ in range(4):
        X, Y, Z = rng.standard_normal((3, 5))
        snap = {k: np.einsum("xyza,x,y,z->a", t, X, Y, Z) for k, t in amb.curvature.items()}
        ref = curvature_parts(sr5, x, X, Y, Z)
        assert snap.keys() == ref.keys()
        assert all(np.array_equal(snap[k], ref[k]) for k in ref)
    runs.clear()
    assert amb.curvature is amb.curvature
    assert not runs
    assert np.array_equal(amb.g, metric_at(sr5, x))


def test_point_ambient_checks_the_metric_on_first_use():
    from biharm.exprs import parse_expression

    space = catalog.ambient("flat_c2")
    rows = [["0"] * 4 for _ in range(4)]
    for i, d in enumerate(("-1", "1", "1", "1")):
        rows[i][i] = d
    space.metric = tuple(tuple(parse_expression(e, space.coords) for e in row) for row in rows)
    amb = PointAmbient(space, (0.0, 0.0, 0.0, 0.0))
    assert amb.coeffs == (0.0, 0.0)  # a fault of one tensor stays with its first use
    with pytest.raises(GeometryError):
        amb.g
