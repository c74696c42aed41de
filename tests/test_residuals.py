"""Biharmonicity equations: trace identities, branches, verdict machinery."""

import math

import numpy as np
import pytest

from biharm import catalog
from biharm.ambient import (
    COSYMPLECTIC,
    KENMOTSU,
    KIND_COMPLEX,
    KIND_CONTACT,
    SASAKI,
    ClassicalTag,
    GeometryError,
    PointAmbient,
    coefficients_at,
    coefficients_for_tag,
    curvature_parts,
    metric_at,
    norm,
    structure_at,
)
from biharm.residuals import (
    BRANCHES,
    CLOSED_FORM,
    GridSamples,
    bound_check,
    characterization_target,
    cmc_characterization,
    flag_consensus,
    nonexistence_audit,
    reduction_residual,
    residual_gcsf,
    residual_general,
    residual_gssf,
)
from biharm.scenario import load_scenario, run_check
from biharm.structure import FLAGS, classify, decompose
from biharm.submanifold import normal_derivatives, point_geometry
from conftest import QUANTITIES, WITNESSES, random_orthonormal_frames


def _full_point(space_name, imm_name, u, params=None, ambient_params=None):
    space = catalog.ambient(space_name, ambient_params)
    imm = catalog.immersion(imm_name, space, params)
    pg = point_geometry(space, imm, u)
    nd = normal_derivatives(pg)
    ops = decompose(pg.ambient, pg.tangent_frame, pg.normal_frame)
    flags = classify(ops, pg.mean_normal_components)
    return space, pg, nd, ops, flags


def test_complex_curvature_trace_identity():
    # sum_i R_complex(X_i, H) X_i = 3 (jl + kl) H on random frames
    rng = np.random.RandomState(3)
    for name in ("flat_c2", "cp2", "synthetic_complex"):
        space = catalog.ambient(name)
        x = rng.uniform(-0.4, 0.4, 4)
        for _ in range(20):
            m = int(rng.randint(1, 4))
            tf, nf = random_orthonormal_frames(space, x, m, rng)
            ops = decompose(PointAmbient(space, x), tf, nf)
            hn = rng.randn(4 - m)
            H = hn @ nf
            trace = np.zeros(4)
            for X in tf:
                trace += curvature_parts(space, x, X, H, X)["complex"]
            lH = ops.nt @ hn
            expected = 3.0 * (ops.tt @ lH) @ tf + 3.0 * (ops.tn @ lH) @ nf
            assert np.abs(trace - expected).max() < 1e-10


def test_contact_curvature_trace_identity():
    # sum_i R*(X_i, H) X_i = -m f1 H + f2 (|xi_tan|^2 H - eta(H) xi_tan
    #                          + m eta(H) xi) + 3 f3 (Pt + Nt) H
    rng = np.random.RandomState(4)
    for name in ("sasakian_r5", "cosymplectic_r5", "sasakian_sphere_s5"):
        space = catalog.ambient(name)
        if space.backend == "embedded":
            x = rng.randn(6)
            x /= np.linalg.norm(x)
        else:
            x = rng.uniform(-0.4, 0.4, space.dim)
        g = metric_at(space, x)
        _, xi = structure_at(space, x)
        f1, f2, f3 = rng.uniform(-2, 2, 3)
        for _ in range(12):
            m = int(rng.randint(1, 5))
            tf, nf = random_orthonormal_frames(space, x, m, rng)
            ops = decompose(PointAmbient(space, x), tf, nf)
            hn = rng.randn(space.dim - m)
            H = hn @ nf
            trace = np.zeros(space.rep_dim)
            for X in tf:
                parts = curvature_parts(space, x, X, H, X)
                trace += f1 * parts["const"] + f2 * parts["reeb"] + f3 * parts["fundform"]
            eta_h = (g @ xi) @ H
            xi_tan_vec = ops.xi_tan @ tf
            tH = ops.nt @ hn
            expected = (
                -m * f1 * H
                + f2 * ((ops.xi_tan @ ops.xi_tan) * H - eta_h * xi_tan_vec + m * eta_h * xi)
                + 3.0 * f3 * ((ops.tt @ tH) @ tf + (ops.tn @ tH) @ nf)
            )
            assert np.abs(trace - expected).max() < 1e-10


def test_flat_hypersphere_residual_value():
    space, pg, nd, ops, flags = _full_point("flat_c2", "round_hypersphere",
                                            (0.8, 1.2, 2.5), {"r": 1.0})
    res = residual_general(pg, nd)
    assert norm(res.normal) == pytest.approx(3.0, rel=1e-12)
    assert norm(res.tangential) < 1e-12
    for r in (0.5, 2.0):
        space2, pg2, nd2, *_ = _full_point("flat_c2", "round_hypersphere",
                                           (0.8, 1.2, 2.5), {"r": r})
        res2 = residual_general(pg2, nd2)
        assert norm(res2.normal) == pytest.approx(3.0 / r**3, rel=1e-12)


def test_scale_covariance_in_flat_ambient():
    # scaling an immersion by lambda scales the normal residual by lambda^-3
    space = catalog.ambient("flat_c2")
    u = (1.1, 2.3)
    base = None
    for lam in (1.0, 1.7, 2.5):
        imm = catalog.immersion("product_torus", space, {"a": lam, "b": 0.6 * lam})
        pg = point_geometry(space, imm, u)
        nd = normal_derivatives(pg)
        normal = norm(residual_general(pg, nd).normal)
        if base is None:
            base = normal
        else:
            assert normal == pytest.approx(base / lam**3, rel=1e-7)


def test_minimal_point_is_biharmonic():
    space, pg, nd, ops, flags = _full_point("sasakian_r5", "hyperplane_y1",
                                            (0.3, -0.2, 0.5, 0.1))
    res = residual_general(pg, nd)
    assert norm(res.normal) < 1e-13 and norm(res.tangential) < 1e-13


def test_gcsf_closed_form_matches_general_split():
    cases = [
        ("flat_c2", "round_hypersphere", {"r": 1.3}, (0.7, 1.0, 2.2)),
        ("flat_c2", "product_torus", {"a": 1.0, "b": 0.6}, (0.9, 2.1)),
        ("cp2", "geodesic_sphere_cp2", {"r": 0.8}, (0.7, 1.2, 2.0)),
        ("flat_c2", "circle", {"r": 1.2}, (0.9,)),
        ("flat_c2", "helix", {"a": 1.0, "b": 0.4}, (1.3,)),
        ("synthetic_complex", "product_torus", {"a": 1.0, "b": 1.0}, (0.8, 1.7)),
    ]
    for space_name, imm_name, params, u in cases:
        space, pg, nd, ops, flags = _full_point(space_name, imm_name, u, params)
        general = residual_general(pg, nd)
        variants = residual_gcsf(space, pg, nd, ops, flags)
        for name, res in variants.items():
            assert np.abs(res.normal - general.normal).max() < 1e-8, (imm_name, name)
            assert np.abs(res.tangential - general.tangential).max() < 1e-8, (imm_name, name)


def test_gssf_closed_form_matches_general_split():
    cases = [
        ("sasakian_r5", "hyperplane_y1", None, (0.4, -0.1, 0.2, 0.3)),
        ("sasakian_r5", "graph_surface", None, (0.3, -0.2)),
        ("cosymplectic_r5", "graph_surface", None, (0.25, 0.4)),
        ("kenmotsu_hyperbolic", "hyperplane_y1", None, (0.2, 0.1, -0.3, 0.4)),
        ("sasakian_sphere_s5", "small_hypersphere", {"rho": 0.8}, (0.9, 1.2, 0.7, 2.1)),
        ("sasakian_sphere_s5", "clifford_torus_s5", {"theta": 0.9}, (0.7, 1.0, 1.2, 2.0)),
    ]
    for space_name, imm_name, params, u in cases:
        space, pg, nd, ops, flags = _full_point(space_name, imm_name, u, params)
        general = residual_general(pg, nd)
        variants = residual_gssf(space, pg, nd, ops, flags)
        assert CLOSED_FORM in variants
        for name, res in variants.items():
            assert np.abs(res.normal - general.normal).max() < 1e-8, (imm_name, name)
            assert np.abs(res.tangential - general.tangential).max() < 1e-8, (imm_name, name)


def _catalog_doc(ambient, immersion, **params):
    return {"ambient": {"catalog": ambient}, "immersion": {"catalog": immersion, "params": params}}


def _inline_doc(ambient, m, *components, lo=-0.6, hi=0.7):
    return {"ambient": {"catalog": ambient},
            "immersion": {"params": [f"u{i + 1}" for i in range(m)], "components": list(components),
                          "domain": {"axes": [{"lo": lo, "hi": hi, "samples": 2}] * m}}}


# S^3 = {z3 = 0} in S^5: invariant, so xi is tangent, and minimal, as every
# invariant submanifold of a Sasakian ambient is
INVARIANT_S3 = {
    "ambient": {"catalog": "sasakian_sphere_s5"},
    "immersion": {
        "params": ["u1", "u2", "u3"],
        "components": ["cos(u1)", "sin(u1)*cos(u2)", "sin(u1)*sin(u2)*cos(u3)",
                       "sin(u1)*sin(u2)*sin(u3)", "0", "0"],
        "domain": {"axes": [{"lo": 0.5, "hi": 2.6, "samples": 2},
                            {"lo": 0.5, "hi": 2.6, "samples": 2},
                            {"lo": 0.3, "hi": 0.3 + 2.0 * math.pi, "samples": 2,
                             "periodic": True}]},
    },
}


# scenarios that between them reach every row of both tables of
# residuals.BRANCHES (the rows each reaches as comments), chosen so that a
# changed coefficient of a row shows as a gap to the general split.  It
# cannot show in the rows that only minimal submanifolds reach
# (complex_surface and invariant), where every right-hand side vanishes, nor
# in the complex hypersurface's tangential side, which vanishes on every
# hypersurface of a Kaehler ambient.  Sasakian R^5 has coordinates
# (x1, x2, y1, y2, z), xi along z, and f1 = 0, f2 = f3 = -1.
ROW_SCENARIOS = [
    *(w.doc for w in WITNESSES.values()),       # curve, lagrangian_surface, anti_invariant, xi_normal
    _catalog_doc("cp2", "geodesic_sphere_cp2", r=0.7),                  # hypersurface
    # a complex line of CP^2: complex surfaces of a Kaehler ambient are minimal
    _catalog_doc("cp2", "affine_plane"),                                # complex_surface
    # a surface of CP^2 that is neither complex nor Lagrangian
    _inline_doc("cp2", 2, "u1", "0.5*u2", "u2", "0.3*u1^2", lo=-0.3, hi=0.4),  # closed form only
    _catalog_doc("sasakian_sphere_s5", "small_hypersphere"),            # hypersurface
    _catalog_doc("sasakian_sphere_s5", "clifford_torus_s5", theta=0.9),  # xi_tangent
    _catalog_doc("sasakian_r5", "graph_surface"),                       # xi_normal at some samples
    INVARIANT_S3,                                                       # invariant, xi_tangent
    _inline_doc("sasakian_r5", 2, "u1", "0", "u1^2", "0", "u2"),        # xi_tangent, anti_invariant
    _inline_doc("sasakian_r5", 3, "u1", "u2", "0.5*u2+u1^2", "0", "u3"),  # xi_tangent
    _inline_doc("sasakian_r5", 4, "u1", "u2", "u3", "u4", "0.5*u1^2+u3"),  # hypersurface
]


def test_every_branch_row_is_reached_and_agrees_with_the_general_split():
    reached = {kind: set() for kind in BRANCHES}
    for doc in ROW_SCENARIOS:
        cfg = load_scenario(doc)
        kind = cfg.ambient.kind
        pg = point_geometry(cfg.ambient, cfg.immersion, np.array(cfg.immersion.grid()))
        nd = normal_derivatives(pg)
        ops = decompose(pg.ambient, pg.tangent_frame, pg.normal_frame)
        general = residual_general(pg, nd)
        residuals = residual_gcsf if kind == KIND_COMPLEX else residual_gssf
        flags = classify(ops, pg.mean_normal_components)
        for row, res in residuals(cfg.ambient, pg, nd, ops, flags).items():
            assert np.any(res.active), row
            gap = np.maximum(norm(res.normal - general.normal),
                             norm(res.tangential - general.tangential))
            assert np.where(res.active, gap, 0.0).max() <= 1e-12, (row, doc)
            reached[kind].add(row)
    assert reached == {kind: set(rows) for kind, rows in BRANCHES.items()}


@pytest.mark.parametrize("doc, branch", [
    (INVARIANT_S3, "xi_tangent"),
    # the (x1, y1) plane of cosymplectic R^5, whose xi is along z
    (_inline_doc("cosymplectic_r5", 2, "u1", "0", "u2", "0", "0"), "xi_normal"),
], ids=["s3-in-s5", "plane-in-cosymplectic-r5"])
def test_an_invariant_submanifold_reports_a_reeb_branch(doc, branch):
    # xi is tangent or normal where phi keeps the tangent space, and both of
    # those rows rank before the invariant one, which enters only the gap
    rep = run_check(load_scenario(doc))
    assert rep.verdict == "MinimalHenceBiharmonic"
    assert all(p["flags"]["is_invariant"] for p in rep.document["points"])
    assert {p["branch"] for p in rep.document["points"]} == {branch}


def test_gcsf_dimension_guard():
    space, pg, nd, ops, flags = _full_point("sasakian_r5", "hyperplane_y1",
                                            (0.1, 0.2, 0.3, 0.4))
    with pytest.raises(GeometryError):
        residual_gcsf(space, pg, nd, ops, flags)


def test_parallel_h_reduction_lagrangian():
    # with nabla-perp H = 0 the closed-form normal equation collapses to
    # tr B(., A_H .) = (2 alpha + 3 beta) H for Lagrangian surfaces
    space, pg, nd, ops, flags = _full_point("flat_c2", "product_torus",
                                            (1.0, 2.2), {"a": 1.0, "b": 0.7})
    assert flags["is_lagrangian"] and nd.nabla_norm < 1e-9
    alpha, beta = (0.0, 0.0)
    variants = residual_gcsf(space, pg, nd, ops, flags)
    collapsed = nd.trace_shape_mean - (2 * alpha + 3 * beta) * pg.mean_curvature
    assert np.abs(variants["lagrangian_surface"].normal - collapsed).max() < 1e-9


def test_proper_biharmonic_residuals():
    rstar = math.atan(math.sqrt(3.0 / (4.0 + math.sqrt(13.0))))
    cases = [
        ("sasakian_sphere_s5", "small_hypersphere", {"rho": 2**-0.5}, (0.9, 1.2, 0.7, 2.1)),
        ("sasakian_sphere_s5", "clifford_torus_s5", None, (0.7, 1.0, 1.2, 2.0)),
        ("cp2", "geodesic_sphere_cp2", {"r": rstar}, (0.7, 1.2, 2.0)),
    ]
    for space_name, imm_name, params, u in cases:
        space, pg, nd, ops, flags = _full_point(space_name, imm_name, u, params)
        res = residual_general(pg, nd)
        assert norm(res.normal) < 1e-6, imm_name
        assert norm(res.tangential) < 1e-6, imm_name
        assert pg.mean_curvature_norm > 0.1, imm_name


def _grid_data(space, imm, checks=()):
    from biharm.scenario import ScenarioConfig, _run_grids

    cfg = ScenarioConfig(ambient=space, immersion=imm, checks=[], constants={},
                         expect={}, raw={})
    return _run_grids([cfg], QUANTITIES)[0][0]  # the clean samples


def test_characterization_geodesic_sphere():
    rstar = math.atan(math.sqrt(3.0 / (4.0 + math.sqrt(13.0))))
    space = catalog.ambient("cp2")
    imm = catalog.immersion("geodesic_sphere_cp2", space, {"r": rstar})
    data = _grid_data(space, imm)
    v = cmc_characterization(space, data)
    assert v["status"] == "Satisfied"
    assert v["target"] == pytest.approx(6.0)
    assert v["scalar_check"]["max_gap"] < 1e-8


def test_characterization_flat_sphere_violated():
    space = catalog.ambient("flat_c2")
    imm = catalog.immersion("round_hypersphere", space, {"r": 1.0})
    data = _grid_data(space, imm)
    v = cmc_characterization(space, data)
    assert v["status"] == "Violated"
    assert v["target"] == 0.0
    assert v["gap"] == pytest.approx(3.0)


def test_characterization_small_hypersphere():
    space = catalog.ambient("sasakian_sphere_s5")
    for rho, expected in ((2**-0.5, "Satisfied"), (0.65, "Violated")):
        imm = catalog.immersion("small_hypersphere", space, {"rho": rho})
        data = _grid_data(space, imm)
        v = cmc_characterization(space, data)
        assert v["status"] == expected, rho
        assert v["target"] == pytest.approx(4.0)


def test_characterization_not_applicable_for_minimal():
    space = catalog.ambient("sasakian_r5")
    imm = catalog.immersion("hyperplane_y1", space)
    data = _grid_data(space, imm)
    v = cmc_characterization(space, data)
    assert v["status"] == "NotApplicable"
    assert v["failed_hypothesis"] == "nonzero_mean_curvature"


# K = m f1 - f2 + 3 f3 of the classical contact space forms of constant
# phi-sectional curvature c, in closed form
CLASSICAL_TARGETS = {
    SASAKI: lambda m, c: (m + 2) * c / 4.0 + (3 * m - 2) / 4.0,
    KENMOTSU: lambda m, c: (m + 2) * c / 4.0 - (3 * m - 2) / 4.0,
    COSYMPLECTIC: lambda m, c: (m + 2) * c / 4.0,
}


@pytest.mark.parametrize("family", sorted(CLASSICAL_TARGETS))
def test_characterization_target_matches_classical_closed_forms(family):
    for m in range(1, 5):
        for c in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0):
            coeffs = coefficients_for_tag(ClassicalTag(family, c))
            got = characterization_target(KIND_CONTACT, m, coeffs)
            assert got == pytest.approx(CLASSICAL_TARGETS[family](m, c), abs=1e-12), (m, c)


@pytest.mark.parametrize("name, x", [
    ("sasakian_r5", (0.1, -0.2, 0.3, 0.05, 0.2)),
    ("cosymplectic_r5", (0.1, -0.2, 0.3, 0.05, 0.2)),
    ("kenmotsu_hyperbolic", (0.1, -0.2, 0.3, 0.05, 0.2)),
    ("sasakian_sphere_s5", (0.6, 0.0, 0.0, 0.8, 0.0, 0.0)),
])
def test_bound_k_value_of_tagged_contact_ambients_matches_closed_form(name, x):
    # K comes from the samples' coefficients; on a tagged catalog ambient it
    # equals the family's closed form
    space = catalog.ambient(name)
    for m in range(1, 5):
        points = _samples([{"xi_tangent": True}] * 2, m=m, nabla_h_norm=np.zeros(2),
                          coeffs=coefficients_at(space, np.array([x, x])))
        rep = bound_check(space, points)
        assert rep["kind"] == "xi_phi_h_tangent"
        k = rep["k_value"]
        assert k == pytest.approx(CLASSICAL_TARGETS[space.tag.family](m, space.tag.value),
                                  abs=1e-12), m


def _samples(flags, h_norm=0.5, m=2, **columns):
    """Synthetic grid samples of an ``m``-dimensional submanifold, one per
    dict of ``flags`` (``is_curve`` and ``is_hypersurface`` False and every
    other flag None unless it names them), at |H| ``h_norm`` and |B|^2 1,
    with the further ``columns``."""
    assert all(set(f) <= set(FLAGS) for f in flags)
    rows = [dict.fromkeys(FLAGS) | {"is_curve": False, "is_hypersurface": False, **f}
            for f in flags]
    n = len(rows)
    return GridSamples(u=np.zeros((n, m)), h_norm=np.full(n, h_norm), b_norm2=np.ones(n),
                       flags={k: np.array([r[k] for r in rows], dtype=object) for k in rows[0]},
                       **columns)


def _with_flags(**flags):
    return dict(is_hypersurface=True, **flags)


def test_flag_consensus_is_tri_state():
    # a flag no sample decides is None, one that every deciding sample sets
    # is True, and one that any sample clears is False
    consensus = flag_consensus(_samples([_with_flags(xi_tangent=None, phi_h_tangent=None,
                                                     phi_h_normal=None, xi_normal=True),
                                         _with_flags(xi_tangent=None, phi_h_tangent=True,
                                                     phi_h_normal=False, xi_normal=True)]))
    assert consensus["xi_tangent"] is None
    assert consensus["phi_h_tangent"] is True
    assert consensus["phi_h_normal"] is False
    assert consensus["xi_normal"] is True
    assert consensus["is_hypersurface"] is True and consensus["is_curve"] is False
    assert flag_consensus(_samples([_with_flags(xi_normal=False), _with_flags(xi_normal=True)])) \
        ["xi_normal"] is False


def test_bound_equality_case_reads_the_pseudo_umbilical_rule():
    # a Lagrangian grid at equality, |H|^2 = inf (2 alpha + 3 beta)/2 = 1,
    # whose pseudo-umbilical deviation 1e-7 is above PSEUDO_UMBILICAL_TOL:
    # the equality case and the pseudo_umbilical check both say it is not
    # pseudo-umbilical
    import biharm.scenario as scenario

    samples = _samples([{"is_lagrangian": True}] * 2, h_norm=1.0,
                       coeffs=(np.ones(2), np.zeros(2)), nabla_h_norm=np.zeros(2),
                       pseudo_deviation=np.array([1e-7, 0.0], dtype=object))
    rep = bound_check(catalog.ambient("cp2"), samples)
    assert rep["kind"] == "lagrangian" and rep["equality"] is True
    assert rep["equality_case"] == {"pseudo_umbilical": False, "parallel_mean_curvature": True}
    check = scenario.CHECKS["pseudo_umbilical"].run(scenario._Grid(None, samples, {}))
    assert check == {"max_deviation": 1e-7, "status": "violated"}


def test_bound_equality_small_hypersphere():
    space = catalog.ambient("sasakian_sphere_s5")
    imm = catalog.immersion("small_hypersphere", space, {"rho": 2**-0.5})
    data = _grid_data(space, imm)
    rep = bound_check(space, data)
    assert rep["kind"] == "xi_phi_h_tangent"
    assert rep["k_value"] == pytest.approx(4.0)
    assert rep["bound"] == pytest.approx(1.0)
    assert rep["h2"] == pytest.approx(1.0)
    assert rep["within_bound"] and rep["equality"]
    assert rep["equality_case"] == {"pseudo_umbilical": True, "parallel_mean_curvature": True}


def test_bound_broken_by_perturbed_radius():
    space = catalog.ambient("sasakian_sphere_s5")
    imm = catalog.immersion("small_hypersphere", space, {"rho": 0.65})
    data = _grid_data(space, imm)
    rep = bound_check(space, data)
    assert rep["equality"] is False
    assert rep["within_bound"] is False  # |H|^2 = (1-rho^2)/rho^2 > 1, not biharmonic


def test_bound_lagrangian_value_formula():
    # Lagrangian CMC surface bound in CP^2(4): inf (2 alpha + 3 beta)/2 = 5/2
    space = catalog.ambient("cp2")
    imm = catalog.immersion("product_torus", space, {"a": 0.6, "b": 0.8})
    data = _grid_data(space, imm)
    assert all(data.flags["is_lagrangian"])
    rep = bound_check(space, data)
    assert rep["kind"] == "lagrangian"
    assert rep["bound"] == pytest.approx(2.5)


def test_bound_lagrangian_flat_not_applicable():
    space = catalog.ambient("flat_c2")
    imm = catalog.immersion("product_torus", space, {"a": 1.0, "b": 0.5})
    data = _grid_data(space, imm)
    rep = bound_check(space, data)
    assert rep["kind"] == "lagrangian"
    assert rep["status"] == "NotApplicable"
    assert rep["failed_hypothesis"] == "positive_bound"


@pytest.mark.parametrize("f1, h_norm, status, failed", [
    (2.0, 0.5, "WithinBound", None),      # K = 4, bound (K - 3)/m = 0.5 at m = 2
    (2.0, 0.8, "Violated", None),
    (1.0, 0.5, "NotApplicable", "positive_bound"),  # K = 2 <= 3
])
def test_bound_xi_tangent_phi_h_normal_kind(f1, h_norm, status, failed):
    # xi tangent and phi(H) normal, on a grid whose normal equation does not
    # reduce (reduction residual 1): the bound (K - 3)/m of that kind
    space = catalog.ambient("sasakian_r5")
    flags = {"xi_tangent": True, "phi_h_normal": True, "phi_h_tangent": False}
    samples = _samples([flags] * 2, h_norm=h_norm, reduction_residual=np.ones(2),
                       coeffs=(np.full(2, f1), np.zeros(2), np.zeros(2)))
    rep = bound_check(space, samples)
    assert rep["kind"] == "xi_tangent_phi_h_normal"
    assert rep["k_value"] == 2.0 * f1
    assert (rep["status"], rep["failed_hypothesis"]) == (status, failed)
    if failed is None:
        assert rep["bound"] == 0.5 and rep["equality"] is False
    findings = {f["rule"]: f for f in nonexistence_audit(space, samples)}
    assert findings["cmc_xi_tangent_phi_h_normal"]["relevant"] is True
    assert findings["cmc_xi_tangent_phi_h_normal"]["applies"] is (2.0 * f1 <= 3.0)


def test_audit_sasakian_r5_applies():
    space = catalog.ambient("sasakian_r5")
    imm = catalog.immersion("hyperplane_y1", space)
    data = _grid_data(space, imm)
    findings = {f["rule"]: f for f in nonexistence_audit(space, data)}
    f = findings["cmc_reeb_tangent_hypersurface"]
    assert f["relevant"] and f["applies"]
    assert f["detail"]["c_threshold"] == pytest.approx(-10.0 / 6.0)
    assert f["detail"]["threshold_applies"] is True
    # target = m f1 - f2 + 3 f3 with (f1, f2, f3) = (0, -1, -1)
    assert f["detail"]["sup_target"] == pytest.approx(-2.0)


def test_audit_flat_complex_applies():
    space = catalog.ambient("flat_c2")
    imm = catalog.immersion("round_hypersphere", space, {"r": 1.0})
    data = _grid_data(space, imm)
    findings = {f["rule"]: f for f in nonexistence_audit(space, data)}
    f = findings["cmc_hypersurface_nonpositive_scalar"]
    assert f["relevant"] and f["applies"]


def test_audit_positive_curvature_does_not_apply():
    space = catalog.ambient("sasakian_sphere_s5")
    imm = catalog.immersion("small_hypersphere", space, {"rho": 2**-0.5})
    data = _grid_data(space, imm)
    findings = {f["rule"]: f for f in nonexistence_audit(space, data)}
    assert findings["cmc_reeb_tangent_hypersurface"]["applies"] is False
    assert findings["cmc_xi_phi_h_tangent"]["applies"] is False


def test_reduction_residual_vanishes_when_xi_terms_drop():
    # unit S^5 has f2 = f3 = 0, so the closed-form right-hand side is already
    # the constant-target form even though xi is not tangent
    space, pg, nd, ops, flags = _full_point(
        "sasakian_sphere_s5", "small_hypersphere", (0.9, 1.2, 0.7, 2.1), {"rho": 0.8})
    assert reduction_residual(pg, ops) < 1e-12
    # Sasakian R^5 has f2 = f3 = -1; a graph surface with xi not tangent
    # does not reduce
    space, pg, nd, ops, flags = _full_point("sasakian_r5", "graph_surface", (0.3, 0.2))
    assert not flags["xi_tangent"]
    assert reduction_residual(pg, ops) > 1e-3


def test_a_contact_block_builds_its_right_hand_side_quantities_once(monkeypatch):
    # the branch residuals and the reduction residual of one block read the
    # same quantities; other operators at the same samples get their own
    import biharm.residuals as residuals_module

    built, namespace = [], residuals_module.SimpleNamespace

    def counted(**kwargs):
        built.append(kwargs)
        return namespace(**kwargs)

    space, pg, nd, ops, flags = _full_point("sasakian_r5", "graph_surface", [(0.3, 0.2), (0.1, 0.4)])
    expected = reduction_residual(pg, decompose(pg.ambient, pg.tangent_frame, pg.normal_frame))
    monkeypatch.setattr(residuals_module, "SimpleNamespace", counted)
    residual_gssf(space, pg, nd, ops, flags)
    assert len(built) == 1
    assert reduction_residual(pg, ops).tobytes() == expected.tobytes() and len(built) == 1
    reduction_residual(pg, decompose(pg.ambient, pg.tangent_frame, pg.normal_frame))
    assert len(built) == 2
