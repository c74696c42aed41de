"""Extrinsic geometry engine against closed-form and finite-difference oracles."""

import math

import numpy as np
import pytest

import biharm.submanifold as sm
from biharm import catalog
from biharm.ambient import (
    GeometryError,
    christoffel_point,
    scalar_from_metric_jets,
    tangent_projector,
    verify_structure,
)
from biharm.exprs import parse_expression
from biharm.jets import n_entries, seed_point
from biharm.scenario import load_scenario
from biharm.submanifold import (
    Axis,
    ImmersionModel,
    fd_normal_laplacian,
    normal_derivatives,
    point_geometry,
    pseudo_umbilical_check,
    scalar_curvature,
)

from conftest import full_chart_calc, full_second_fundamental, gauss_einsum
from test_acceptance import CATALOG_SCENARIOS


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
    # the snapshot holds the calculus's metric, the one the frames are orthonormal for
    assert _bitwise(pg.ambient.g, pg._state["calc"].g.value)
    assert np.abs(pg.ambient.g - metric_at(space, pg.position)).max() < 1e-15
    space, imm = _setup("sasakian_sphere_s5", "small_hypersphere")
    pg = point_geometry(space, imm, imm.grid()[0])
    assert np.array_equal(pg.ambient.g, np.eye(6))


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
    intrinsic, via_gauss = scalar_curvature(pg)
    assert intrinsic == pytest.approx(6 / 1.3**2, rel=1e-9)
    assert via_gauss == pytest.approx(6 / 1.3**2, rel=1e-9)


def test_scalar_curvature_great_hypersphere():
    # the equatorial S^4(1) in S^5 is totally geodesic with scal = 12
    space, imm = _setup("sasakian_sphere_s5", "small_hypersphere", {"rho": 1.0})
    pg = point_geometry(space, imm, (0.9, 1.4, 0.6, 2.2))
    assert pg.second_fundamental_norm2 < 1e-24
    intrinsic, via_gauss = scalar_curvature(pg)
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
    assert scalar_curvature(pg_v)[0] == pytest.approx(
        scalar_curvature(pg_u)[0], abs=1e-7)
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


# -- the sample axis ------------------------------------------------------------

# one immersion per catalog ambient, both backends: round_hypersphere is a
# hypersurface whose orientation flips on some grid rows, and product_torus
# completes its normal frame with pivots that differ between rows
BATCH_CASES = [
    ("flat_c2", "round_hypersphere", {"r": 1.3}),
    ("flat_c2", "product_torus", {"a": 1.0, "b": 0.6}),
    ("cp2", "geodesic_sphere_cp2", {"r": 0.7}),
    ("synthetic_complex", "helix", None),
    ("sasakian_r5", "graph_surface", None),
    ("cosymplectic_r5", "graph_surface", None),
    ("kenmotsu_hyperbolic", "hyperplane_y1", None),
    ("sasakian_sphere_s5", "clifford_torus_s5", None),
]
VALUES = ("position", "tangent_frame", "normal_frame", "second_fundamental", "mean_curvature",
          "mean_curvature_norm", "second_fundamental_norm2", "induced_metric")
JETS = ("pos", "g_ind", "frames", "coeffs", "normals", "nablaXX", "H")


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("space_name, imm_name, params", BATCH_CASES)
def test_grid_batch_equals_per_sample_calls_bitwise(space_name, imm_name, params, order):
    space, imm = _setup(space_name, imm_name, params)
    grid = imm.grid()
    batch = point_geometry(space, imm, grid, order)
    assert batch.position.shape == (len(grid), space.rep_dim)
    if order == 4:  # the block stages of a grid run
        nd = normal_derivatives(batch)
        scal = scalar_curvature(batch)
    for i, u in enumerate(grid):
        one = point_geometry(space, imm, u, order)
        assert tuple(batch.u[i].tolist()) == tuple(one.u.tolist()) == u
        for name in VALUES:
            assert _bitwise(getattr(batch, name)[i], getattr(one, name)), (i, name)
        for key in JETS:
            assert _bitwise(batch._state[key].coeffs[i], one._state[key].coeffs), (i, key)
        # the block's ambient programs run once on arrays, each row as its point alone
        assert _bitwise(batch.ambient.g[i], one.ambient.g), i
        assert _bitwise(np.array(batch.ambient.coeffs)[:, i], one.ambient.coeffs), i
        for key, tensor in batch.ambient.curvature.items():
            assert _bitwise(tensor[i], one.ambient.curvature[key]), (i, key)
        if order == 4:
            # the block's rows against the same stages run at this point alone
            b = normal_derivatives(one)
            for name in ("nabla_norm", "laplacian", "grad_h2", "trace_shape_mean",
                         "trace_shape_gradient"):
                assert _bitwise(getattr(nd, name)[i], getattr(b, name)), (i, name)
            row = [v[i] for v in scal]
            assert _bitwise(row, scalar_curvature(one)), i
            if imm.dim > 1:
                assert _bitwise(row[0], scalar_from_metric_jets(one._state["g_ind"])), i


def _chart_pairs():
    """Every chart catalog ambient with each catalog immersion of its
    representation dimension."""
    pairs = []
    for space_name in sorted(catalog.AMBIENTS):
        space = catalog.ambient(space_name)
        for imm_name in sorted(catalog.IMMERSIONS) if space.backend == "chart" else ():
            try:
                catalog.immersion(imm_name, space)
            except ValueError:  # another representation dimension
                continue
            pairs.append((space_name, imm_name))
    return pairs


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("space_name, imm_name", _chart_pairs())
def test_chart_calc_equals_the_full_augmented_space_bitwise(space_name, imm_name, order):
    # the augmented metric keeps the displacements first-order and runs one
    # order below the seed, and the Christoffel stages run one upper index at
    # a time, one order lower again: the calculus's metric and precontracted
    # connection are the full seed-order space's, truncated, bit for bit
    space, imm = _setup(space_name, imm_name)
    m, d = imm.dim, space.dim
    pos = imm.jets("components", seed_point(np.array(imm.grid()), order))
    calc = sm._ChartCalc(space, pos)
    g, gamma_t = full_chart_calc(space, pos)
    g, gamma_t = g.truncate(order - 1), gamma_t.truncate(order - 2)
    assert calc.g.space is g.space and _bitwise(calc.g.coeffs, g.coeffs)
    assert calc.gamma_t.space is gamma_t.space and _bitwise(calc.gamma_t.coeffs, gamma_t.coeffs)
    size = sm.geometry_jet_size(space, imm, order)
    widest = max(n_entries(m, order), n_entries(m, order - 1) + d * n_entries(m, order - 2))
    assert size == widest < n_entries(m + d, order)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("space_name, imm_name", [
    ("sasakian_r5", "hyperplane_y1"),
    ("cp2", "geodesic_sphere_cp2"),
    ("sasakian_sphere_s5", "clifford_torus_s5"),  # embedded
])
def test_each_stage_runs_at_the_order_its_readers_need(monkeypatch, space_name, imm_name, order):
    # one order lower per derivative still to be taken: covariant derivatives
    # read the frames, so they stay one below the seed, and everything a
    # covariant derivative or a projection adds to runs one below that
    builds, build = [], sm._second_fundamental

    def recorded(calc, coeffs, cov, normals, i, j):
        builds.append((coeffs.order, len(i)))
        return build(calc, coeffs, cov, normals, i, j)

    monkeypatch.setattr(sm, "_second_fundamental", recorded)
    space, imm = _setup(space_name, imm_name)
    st = point_geometry(space, imm, imm.grid()[:3], order)._state
    calc, k, m = st["calc"], order, imm.dim
    expected = {"pos": k, "frames": k - 1, "g_ind": min(k - 1, 2), "coeffs": k - 2,
                "normals": k - 2, "nablaXX": k - 2, "H": k - 2}
    assert {key: st[key].order for key in expected} == expected
    # B on all m^2 pairs at order 0 for its values; the diagonal that H and
    # the drift read at k - 2, taken from that one build when k - 2 = 0
    assert builds == [(0, m * m)] + ([(k - 2, m)] if k > 2 else [])
    assert st["nablaXX"].shape == (3, m, calc.d)
    if space.backend == "chart":
        assert (calc.g.order, calc.gamma_t.order) == (k - 1, k - 2)
    else:
        assert calc.normals.order == k - 2


def test_no_product_runs_above_the_order_its_readers_need(monkeypatch):
    # a work-count tripwire on one order-4 chart block: the components are
    # linear, so every product belongs to a stage past the positions
    from biharm.jets import _JetSpace

    space, imm = _setup("sasakian_r5", "hyperplane_y1")
    products, stage = [], ["geometry"]
    mul, inverse, init = _JetSpace.mul, sm.jet_matrix_inverse, sm._ChartCalc.__init__

    def counted(self, a, b):
        products.append((stage[0], self.order))
        return mul(self, a, b)

    def connection(mat):  # the Christoffel symbols and gamma_t follow the inverse
        stage[0] = "connection"
        return inverse(mat)

    def calc_init(self, *args):
        init(self, *args)
        stage[0] = "geometry"

    monkeypatch.setattr(_JetSpace, "mul", counted)
    monkeypatch.setattr(sm, "jet_matrix_inverse", connection)
    monkeypatch.setattr(sm._ChartCalc, "__init__", calc_init)
    normal_derivatives(point_geometry(space, imm, imm.grid(), 4))
    orders = {name: {o for s, o in products if s == name} for name in ("geometry", "connection")}
    assert max(orders["geometry"]) == 3 and orders["connection"] == {2}


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("space_name, imm_name, params", BATCH_CASES)
def test_b_diagonal_and_values_are_the_full_build_bitwise(space_name, imm_name, params, order):
    # the diagonal jets of nabla_{X_i} X_j and B at k - 2, and the values of
    # B off the diagonal at order 0, against one (m, m) build at k - 2
    space, imm = _setup(space_name, imm_name, params)
    pg = point_geometry(space, imm, imm.grid(), order)
    st, ii = pg._state, np.arange(imm.dim)
    nabla, b = full_second_fundamental(st["calc"], st["coeffs"], st["frames"], st["normals"])
    assert _bitwise(st["nablaXX"].coeffs, nabla[..., ii, ii, :].coeffs)
    h_n = b[..., :, ii, ii].sum(-1) * (1.0 / imm.dim)
    assert _bitwise(st["H"].coeffs, (h_n[..., :, None] * st["normals"]).sum(-2).coeffs)
    # the reference reads the oriented normals, point_geometry negates the
    # values of B after their build: a zero may differ in its sign only
    assert _bitwise(pg.second_fundamental + 0.0, b.value + 0.0)


@pytest.mark.parametrize("ambient, immersion", CATALOG_SCENARIOS)
def test_gauss_chain_matches_the_five_operand_einsum(ambient, immersion):
    cfg = load_scenario({"ambient": ambient, "immersion": immersion})
    pg = point_geometry(cfg.ambient, cfg.immersion, cfg.immersion.grid())
    amb, h2, b2 = gauss_einsum(pg), pg.m**2 * pg.mean_curvature_norm**2, pg.second_fundamental_norm2
    gap = np.abs(scalar_curvature(pg)[1] - (amb + h2 - b2))
    assert (gap <= 1e-13 * (np.abs(amb) + h2 + b2)).all(), gap.max()


def test_geometry_blocks_stay_within_their_kernel_work(monkeypatch):
    # a work-count tripwire on one cp2 geodesic-sphere grid (m = 3, d = 4):
    # the product terms of its order-4 block with the normal derivatives, and
    # the terms and kernel calls of its order-2 block, which the many small
    # blocks of the finite-difference oracle pay as a fixed cost per call
    from biharm.jets import _JetSpace

    space, imm = _setup("cp2", "geodesic_sphere_cp2", {"r": 0.7})
    terms, mul = [], _JetSpace.mul

    def counted(self, a, b):
        terms.append(math.prod(np.broadcast(a[..., 0], b[..., 0]).shape) * len(self.mul_table()[0]))
        return mul(self, a, b)

    monkeypatch.setattr(_JetSpace, "mul", counted)
    normal_derivatives(point_geometry(space, imm, imm.grid(), 4))
    assert sum(terms) <= 439_168, sum(terms)
    terms.clear()
    point_geometry(space, imm, imm.grid(), 2)
    assert len(terms) <= 92 and sum(terms) <= 25_552, (len(terms), sum(terms))


TAGGED = [name for name in sorted(catalog.AMBIENTS) if catalog.ambient(name).tag is not None]


@pytest.mark.parametrize("name", TAGGED)
def test_batched_structure_audit_equals_per_point_maxima_bitwise(name):
    space = catalog.ambient(name)
    rng = np.random.RandomState(3)
    pts = rng.uniform(-0.5, 0.5, (6, space.rep_dim))
    if space.backend == "embedded":
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    batch = verify_structure(space, pts)
    singles = [verify_structure(space, [x]) for x in pts]
    assert any(k.startswith("covariant") for k in batch)
    assert list(batch) == list(singles[0])
    for key, value in batch.items():
        assert _bitwise(value, max(r[key] for r in singles)), key


def test_batch_rows_take_their_own_orientation_and_pivots(monkeypatch):
    signs, pivots = [], []
    orientation, pick = sm._orientation, sm._pick

    def recorded_orientation(*args):
        signs.append(orientation(*args))
        return signs[-1]

    def recorded_pick(jet, batch, picks):
        pivots.append(list(picks))
        return pick(jet, batch, picks)

    monkeypatch.setattr(sm, "_orientation", recorded_orientation)
    monkeypatch.setattr(sm, "_pick", recorded_pick)
    space, imm = _setup("flat_c2", "round_hypersphere", {"r": 1.3})
    point_geometry(space, imm, imm.grid(), 2)
    assert set(signs[0].tolist()) == {-1.0, 1.0}
    space, imm = _setup("flat_c2", "product_torus", {"a": 1.0, "b": 0.6})
    pivots.clear()
    point_geometry(space, imm, imm.grid(), 2)
    assert len(set(pivots[0])) > 1


def test_pivot_rule_takes_lowest_index_within_1e14_of_the_largest():
    free = np.zeros((1, 3), dtype=bool)
    # an exact tie takes the lowest index, also after a taken one
    assert sm._pivots(np.array([[0.5, 2.0, 2.0]]), free).tolist() == [1]
    assert sm._pivots(np.array([[2.0, 2.0, 2.0]]), np.array([[True, False, False]])).tolist() == [1]
    # a chain of near-equal norms: index 1 is within 1e-14 of the largest
    chain = np.array([[1.0, 1.0 + 0.6e-14, 1.0 + 1.2e-14]])
    assert sm._pivots(chain, free).tolist() == [1]
    # each row picks on its own; a taken or non-finite candidate is never picked
    norms = np.array([[1.0, 3.0, 2.0], [np.inf, 1.0, np.nan], [4.0, 5.0, 1.0]])
    taken = np.array([[False, False, False], [False, False, False], [False, True, False]])
    assert sm._pivots(norms, taken).tolist() == [1, 1, 0]


@pytest.mark.parametrize("norms, taken", [
    ([[1.0, 2.0]], [[True, True]]),                       # every candidate taken
    ([[1e-16, 1e-17]], [[False, False]]),                 # at or below RANK_TOL^2
    ([[sm.RANK_TOL**2, 0.0]], [[False, False]]),
    ([[np.nan, np.inf]], [[False, False]]),               # no finite candidate
    ([[1.0, 2.0], [1e-20, 0.0]], [[False, False]] * 2),   # one row short of rank
])
def test_pivot_rule_raises_without_a_finite_pivot_above_rank_tol(norms, taken):
    with pytest.raises(GeometryError, match="normal frame"):
        sm._pivots(np.array(norms), np.array(taken))


def test_a_batch_fault_raises_for_the_whole_batch():
    space = catalog.ambient("flat_c2")
    params = ("u1", "u2")
    comps = tuple(parse_expression(s, params) for s in ("u1", "u2", "sqrt(0.5 - u1)", "0"))
    imm = ImmersionModel("half", 2, params, comps, (Axis(0, 1, 3), Axis(0, 1, 2)), {})
    with pytest.raises(ArithmeticError):
        point_geometry(space, imm, imm.grid(), 2)
    assert point_geometry(space, imm, imm.grid()[:2], 2).mean_curvature_norm.shape == (2,)


def _fd_reference(space, imm, u, h, points):
    """The FD oracle with one order-2 geometry call per stencil visit, as it
    stood before its stencil became one batch; ``points`` collects the visits."""
    u = np.asarray(u, dtype=float)
    m = imm.dim

    def geometry(v):
        points.append(v.copy())
        return point_geometry(space, imm, v, 2)

    def covd(pg, dpos_q, vec, dvec):
        if space.backend == "chart":
            gam = christoffel_point(space, pg.position)
            return dvec + np.einsum("cab,a,b->c", gam, dpos_q, vec)
        return tangent_projector(space, pg.position) @ dvec

    def project_normal(pg, vec):
        out = np.zeros_like(vec)
        for nu in pg.normal_frame:
            out += (nu @ pg.ambient.g @ vec) * nu
        return out

    def W_at(v, q):
        vp, vm = v.copy(), v.copy()
        vp[q] += h
        vm[q] -= h
        dH = (geometry(vp).mean_curvature - geometry(vm).mean_curvature) / (2.0 * h)
        pg = geometry(v)
        dpos = pg._state["pos"].derivative(q).value
        return project_normal(pg, covd(pg, dpos, pg.mean_curvature, dH))

    pg0 = geometry(u)
    ginv = np.linalg.inv(pg0.induced_metric)
    dg = pg0._state["g_ind"].gradient().value
    low = 0.5 * (dg.transpose(2, 1, 0) + dg.transpose(2, 0, 1) - dg)
    gamma_ind = np.einsum("ce,eab->cab", ginv, low)
    lap = np.zeros(space.rep_dim)
    W0 = [W_at(u, q) for q in range(m)]
    for p in range(m):
        for q in range(m):
            up, um = u.copy(), u.copy()
            up[p] += h
            um[p] -= h
            dW = (W_at(up, q) - W_at(um, q)) / (2.0 * h)
            dpos = pg0._state["pos"].derivative(p).value
            term = project_normal(pg0, covd(pg0, dpos, W0[q], dW))
            term = term - np.einsum("r,rc->c", gamma_ind[:, p, q], np.array(W0))
            lap += ginv[p, q] * term
    return lap


@pytest.mark.parametrize("space_name, imm_name, u, h", [
    ("cosymplectic_r5", "graph_surface", (0.31, -0.17), 0.05),
    ("sasakian_r5", "graph_surface", (0.0976, 0.0976), 0.0125),
    ("cp2", "geodesic_sphere_cp2", (0.7, 1.3, 2.1), 0.025),
    ("sasakian_sphere_s5", "clifford_torus_s5", (0.7, 1.0, 1.2, 2.0), 0.05),
])
def test_fd_stencil_evaluates_each_distinct_point_once(monkeypatch, space_name, imm_name, u, h):
    space, imm = _setup(space_name, imm_name)
    visits = []
    reference = _fd_reference(space, imm, u, h, visits)
    calls = []
    real = sm.point_geometry

    def counted(space, imm, points, order=4):
        calls.append((np.asarray(points, dtype=float), order))
        return real(space, imm, points, order)

    monkeypatch.setattr(sm, "point_geometry", counted)
    got = fd_normal_laplacian(space, imm, u, h)
    assert len(calls) == 1
    rows, order = calls[0]
    assert order == 2 and rows.ndim == 2
    distinct = {v.tobytes() for v in visits}
    assert [r.tobytes() for r in rows] == list(dict.fromkeys(r.tobytes() for r in rows))
    assert {r.tobytes() for r in rows} == distinct
    assert len(visits) > len(distinct)
    if imm.dim == 2:
        assert 13 <= len(distinct) <= 17
    assert _bitwise(got, reference)
