"""Extrinsic geometry engine against closed-form and finite-difference oracles."""

import math

import numpy as np
import pytest

from biharm import catalog
from biharm.ambient import GeometryError
from biharm.exprs import parse_expression
from biharm.submanifold import (
    Axis,
    ImmersionModel,
    fd_normal_laplacian,
    normal_derivatives,
    point_geometry,
    pseudo_umbilical_check,
    scalar_curvature,
)


def _setup(space_name, imm_name, params=None, ambient_params=None):
    space = catalog.ambient(space_name, ambient_params)
    return space, catalog.immersion(imm_name, space, params)


def test_affine_plane_totally_geodesic():
    space, imm = _setup("flat_c2", "affine_plane")
    pg = point_geometry(space, imm, (0.3, -0.8))
    assert pg.second_fundamental_norm2 < 1e-28
    assert pg.mean_curvature_norm < 1e-14
    nd = normal_derivatives(pg)
    assert np.abs(nd.laplacian).max() < 1e-14


def test_hypersphere_closed_form():
    # S^3(r) in flat space: A = Id/r for the inward normal, |H| = 1/r,
    # |B|^2 = 3/r^2
    space, imm = _setup("flat_c2", "round_hypersphere", {"r": 1.7})
    pg = point_geometry(space, imm, (0.8, 1.2, 2.5))
    r = 1.7
    assert pg.mean_curvature_norm == pytest.approx(1 / r, rel=1e-12)
    assert pg.second_fundamental_norm2 == pytest.approx(3 / r**2, rel=1e-12)
    assert np.abs(pg.second_fundamental[0] - np.eye(3) / r).max() < 1e-12
    # inward normal: <nu, position> < 0 and <H, nu> = |H|
    assert pg.normal_frame[0] @ pg.position == pytest.approx(-r, rel=1e-12)
    assert pg.mean_curvature @ pg.normal_frame[0] == pytest.approx(1 / r, rel=1e-12)


def test_point_geometry_carries_the_ambient_metric():
    from biharm.ambient import metric_at

    space, imm = _setup("cp2", "geodesic_sphere_cp2", {"r": 0.6})
    pg = point_geometry(space, imm, (0.7, 1.3, 2.1))
    assert np.abs(pg.ambient_metric - metric_at(space, pg.position)).max() < 1e-15
    space, imm = _setup("sasakian_sphere_s5", "small_hypersphere")
    pg = point_geometry(space, imm, imm.grid()[0])
    assert np.array_equal(pg.ambient_metric, np.eye(6))


def test_b_symmetry_and_shape_adjointness():
    space, imm = _setup("cp2", "geodesic_sphere_cp2", {"r": 0.6})
    pg = point_geometry(space, imm, (0.7, 1.3, 2.1))
    b = pg.second_fundamental
    assert np.abs(b - b.transpose(0, 2, 1)).max() < 1e-9
    # m H = sum_i B(X_i, X_i)
    from biharm.ambient import metric_at

    g = metric_at(space, pg.position)
    for a, nu in enumerate(pg.normal_frame):
        assert np.einsum("ii->", b[a]) == pytest.approx(
            3.0 * (pg.mean_curvature @ g @ nu), abs=1e-10)


def test_small_hypersphere_closed_form():
    space, imm = _setup("sasakian_sphere_s5", "small_hypersphere", {"rho": 2**-0.5})
    pg = point_geometry(space, imm, (0.9, 1.4, 0.6, 2.2))
    assert pg.mean_curvature_norm == pytest.approx(1.0, rel=1e-12)
    assert pg.second_fundamental_norm2 == pytest.approx(4.0, rel=1e-12)
    assert np.abs(pg.second_fundamental[0] - np.eye(4)).max() < 1e-11
    flag, dev = pseudo_umbilical_check(pg)
    assert flag is True and dev < 1e-10


def test_parallel_mean_curvature_examples():
    cases = [
        ("flat_c2", "round_hypersphere", {"r": 0.8}, (0.7, 1.1, 0.9)),
        ("flat_c2", "product_torus", {"a": 1.0, "b": 0.5}, (1.1, 2.3)),
        ("sasakian_sphere_s5", "clifford_torus_s5", None, (0.7, 1.0, 1.2, 2.0)),
    ]
    for space_name, imm_name, params, u in cases:
        space, imm = _setup(space_name, imm_name, params)
        nd = normal_derivatives(point_geometry(space, imm, u))
        assert nd.nabla_norm < 1e-8, imm_name
        assert np.abs(nd.laplacian).max() < 1e-8, imm_name
        assert np.abs(nd.grad_h2).max() < 1e-8, imm_name
        assert np.abs(nd.trace_shape_gradient).max() < 1e-8, imm_name


def test_scaling_hypersphere_keeps_laplacian_zero():
    space = catalog.ambient("flat_c2")
    for r in (0.5, 1.0, 2.0, 3.7):
        imm = catalog.immersion("round_hypersphere", space, {"r": r})
        nd = normal_derivatives(point_geometry(space, imm, (0.8, 1.2, 2.5)))
        assert np.abs(nd.laplacian).max() < 1e-10


def test_normal_laplacian_matches_finite_differences():
    # non-CMC graph surface: jets against nested central differences of the
    # mean curvature field, which converge at second order in the step
    space, imm = _setup("cosymplectic_r5", "graph_surface")
    u = (0.31, -0.17)
    nd = normal_derivatives(point_geometry(space, imm, u))
    errors = []
    for h in (0.05, 0.025, 0.0125):
        fd = fd_normal_laplacian(space, imm, u, h)
        errors.append(np.linalg.norm(fd - nd.laplacian))
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
    assert min(orders) > 1.9
    assert errors[-1] < 0.05 * np.linalg.norm(nd.laplacian)


def test_normal_laplacian_fd_curved_ambient():
    space, imm = _setup("sasakian_r5", "graph_surface")
    u = (0.22, 0.13)
    nd = normal_derivatives(point_geometry(space, imm, u))
    errors = [np.linalg.norm(fd_normal_laplacian(space, imm, u, h) - nd.laplacian)
              for h in (0.04, 0.02)]
    assert math.log2(errors[0] / errors[1]) > 1.8


def test_trace_identities_hypersphere():
    space, imm = _setup("flat_c2", "round_hypersphere", {"r": 1.3})
    pg = point_geometry(space, imm, (0.8, 1.2, 2.5))
    nd = normal_derivatives(pg)
    r = 1.3
    # tr B(., A_H .) = |B|^2 H = (3/r^3) nu for the round hypersphere
    assert np.linalg.norm(nd.trace_shape_mean) == pytest.approx(3 / r**3, rel=1e-12)
    expected = pg.second_fundamental_norm2 * pg.mean_curvature
    assert np.abs(nd.trace_shape_mean - expected).max() < 1e-12


def test_trace_cauchy_schwarz_lower_bound():
    # <tr B(., A_H .), H> = |A_H|^2 >= m |H|^4, equality iff pseudo-umbilical
    cases = [
        ("flat_c2", "round_hypersphere", {"r": 1.1}, (0.8, 1.2, 2.5), True),
        ("sasakian_sphere_s5", "clifford_torus_s5", None, (0.7, 1.0, 1.2, 2.0), False),
    ]
    for space_name, imm_name, params, u, equality in cases:
        space, imm = _setup(space_name, imm_name, params)
        pg = point_geometry(space, imm, u)
        nd = normal_derivatives(pg)
        from biharm.ambient import metric_at

        g = metric_at(space, pg.position)
        lhs = nd.trace_shape_mean @ g @ pg.mean_curvature
        bound = pg.m * pg.mean_curvature_norm**4
        assert lhs >= bound - 1e-12
        if equality:
            assert lhs == pytest.approx(bound, rel=1e-10)
        else:
            assert lhs > bound + 1e-3


def test_minimal_point_traces_vanish():
    space, imm = _setup("sasakian_r5", "hyperplane_y1")
    nd = normal_derivatives(point_geometry(space, imm, (0.4, -0.2, 0.1, 0.3)))
    assert np.abs(nd.trace_shape_mean).max() < 1e-14


def test_scalar_curvature_hypersphere():
    space, imm = _setup("flat_c2", "round_hypersphere", {"r": 1.3})
    pg = point_geometry(space, imm, (0.8, 1.2, 2.5))
    intrinsic, via_gauss = scalar_curvature(space, pg)
    assert intrinsic == pytest.approx(6 / 1.3**2, rel=1e-9)
    assert via_gauss == pytest.approx(6 / 1.3**2, rel=1e-9)


def test_scalar_curvature_great_hypersphere():
    # the equatorial S^4(1) in S^5 is totally geodesic with scal = 12
    space, imm = _setup("sasakian_sphere_s5", "small_hypersphere", {"rho": 1.0})
    pg = point_geometry(space, imm, (0.9, 1.4, 0.6, 2.2))
    assert pg.second_fundamental_norm2 < 1e-24
    intrinsic, via_gauss = scalar_curvature(space, pg)
    assert intrinsic == pytest.approx(12.0, rel=1e-9)
    assert via_gauss == pytest.approx(12.0, rel=1e-9)


def test_pseudo_umbilical_cases():
    # round hypersphere: umbilical, deviation ~ 0
    space, imm = _setup("flat_c2", "round_hypersphere", {"r": 2.0})
    flag, dev = pseudo_umbilical_check(point_geometry(space, imm, (0.8, 1.2, 2.5)))
    assert flag is True and dev < 1e-10
    # Clifford torus: A_H eigenvalues split, not pseudo-umbilical
    space, imm = _setup("sasakian_sphere_s5", "clifford_torus_s5")
    pg = point_geometry(space, imm, (0.7, 1.0, 1.2, 2.0))
    flag, dev = pseudo_umbilical_check(pg)
    assert flag is False
    assert dev == pytest.approx(math.sqrt(12.0) / 4.0, rel=1e-9)
    # minimal immersion: not applicable
    space, imm = _setup("sasakian_r5", "hyperplane_y1")
    flag, dev = pseudo_umbilical_check(point_geometry(space, imm, (0.1, 0.2, 0.3, 0.4), 2))
    assert flag is None and dev is None


def test_rank_deficient_immersion_rejected():
    space = catalog.ambient("flat_c2")
    params = ("u1", "u2")
    comps = tuple(parse_expression(s, params) for s in ("u1", "u1", "0", "0"))
    imm = ImmersionModel("degenerate", 2, params, comps,
                         (Axis(-1, 1, 2), Axis(-1, 1, 2)), {})
    with pytest.raises(GeometryError):
        point_geometry(space, imm, (0.3, 0.4))


def test_reparametrization_invariance():
    # compose the geodesic sphere parametrization with an affine change of
    # parameters; scalar quantities at matching points must agree
    space = catalog.ambient("cp2")
    imm = catalog.immersion("geodesic_sphere_cp2", space, {"r": 0.7})
    A = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, -0.2], [0.1, 0.0, 1.0]])
    subs = {
        "u1": "(v1 + 0.3*v2)",
        "u2": "(v2 - 0.2*v3)",
        "u3": "(0.1*v1 + v3)",
    }
    params = ("v1", "v2", "v3")
    sources = (
        "tan(r)*cos({u1})*cos({u2})",
        "tan(r)*cos({u1})*sin({u2})",
        "tan(r)*sin({u1})*cos({u3})",
        "tan(r)*sin({u1})*sin({u3})",
    )
    comps = tuple(parse_expression(s.format(**subs), params) for s in sources)
    reparam = ImmersionModel("reparam", 3, params, comps,
                             imm.domain, {"r": 0.7})
    v = np.array([0.5, 0.8, 1.1])
    u = A @ v
    pg_u = point_geometry(space, imm, tuple(u))
    pg_v = point_geometry(space, reparam, tuple(v))
    nd_u, nd_v = normal_derivatives(pg_u), normal_derivatives(pg_v)
    assert pg_v.mean_curvature_norm == pytest.approx(pg_u.mean_curvature_norm, abs=1e-7)
    assert pg_v.second_fundamental_norm2 == pytest.approx(
        pg_u.second_fundamental_norm2, abs=1e-7)
    assert scalar_curvature(space, pg_v)[0] == pytest.approx(
        scalar_curvature(space, pg_u)[0], abs=1e-7)
    assert np.abs(nd_v.laplacian - nd_u.laplacian).max() < 1e-7


def test_grid_refinement_does_not_change_pointwise_values():
    space = catalog.ambient("flat_c2")
    imm = catalog.immersion("product_torus", space, {"a": 1.0, "b": 0.7})
    coarse = imm.grid()
    fine = ImmersionModel(imm.name, imm.dim, imm.params, imm.components,
                          tuple(Axis(a.lo, a.hi, 2 * a.samples, a.periodic)
                                for a in imm.domain), imm.bindings)
    shared = coarse[0]
    assert any(np.allclose(shared, g) for g in fine.grid())
    a = point_geometry(space, imm, shared)
    b = point_geometry(space, fine, shared)
    assert a.mean_curvature_norm == b.mean_curvature_norm
    assert a.second_fundamental_norm2 == b.second_fundamental_norm2


def test_insufficient_jet_order_for_normal_derivatives():
    space, imm = _setup("flat_c2", "round_hypersphere")
    pg = point_geometry(space, imm, (0.8, 1.2, 2.5), order=3)
    with pytest.raises(GeometryError):
        normal_derivatives(pg)
