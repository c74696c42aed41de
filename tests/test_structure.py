"""Structure-tensor decomposition along submanifolds."""

import numpy as np
import pytest

from biharm import catalog
from biharm.ambient import GeometryError, PointAmbient, norm
from biharm.structure import (
    FLAGS,
    DecompositionOperators,
    classify,
    decompose,
    reeb_tangent_hypersurface_identities,
    verify_relations,
)
from biharm.submanifold import point_geometry
from conftest import random_orthonormal_frames


def _frames_from_immersion(space_name, imm_name, u, params=None, ambient_params=None):
    space = catalog.ambient(space_name, ambient_params)
    imm = catalog.immersion(imm_name, space, params)
    pg = point_geometry(space, imm, u, order=2)
    return space, pg


def test_relations_random_frames_flat():
    flat = catalog.ambient("flat_c2")
    rng = np.random.RandomState(1)
    x = (0.2, -0.1, 0.5, 0.3)
    for _ in range(100):
        m = int(rng.randint(1, 4))
        tf, nf = random_orthonormal_frames(flat, x, m, rng)
        rel = verify_relations(decompose(PointAmbient(flat, x), tf, nf))
        assert max(rel.values()) < 1e-12


def test_relations_random_frames_contact():
    sr5 = catalog.ambient("sasakian_r5")
    rng = np.random.RandomState(2)
    x = (0.3, -0.2, 0.4, 0.1, 0.5)
    for _ in range(100):
        m = int(rng.randint(1, 5))
        tf, nf = random_orthonormal_frames(sr5, x, m, rng)
        rel = verify_relations(decompose(PointAmbient(sr5, x), tf, nf))
        assert max(rel.values()) < 1e-10


def test_violating_operators_detected():
    # hand-built violation: tangent-tangent block = Id with everything else 0
    # gives |tt^2 + nt tn + Id| = |2 Id| = 2 in the spectral norm
    ops = DecompositionOperators(
        kind="generalized_complex",
        tt=np.eye(2), tn=np.zeros((2, 2)), nt=np.zeros((2, 2)), nn=np.zeros((2, 2)),
    )
    rel = verify_relations(ops)
    assert rel["tangent_square"] == pytest.approx(2.0)


def test_nonorthonormal_frames_rejected():
    flat = catalog.ambient("flat_c2")
    bad = np.array([[1.0, 0, 0, 0], [1.0, 1.0, 0, 0]])
    nf = np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    with pytest.raises(GeometryError):
        decompose(PointAmbient(flat, (0, 0, 0, 0)), bad, nf)


def test_product_torus_is_lagrangian():
    space, pg = _frames_from_immersion("flat_c2", "product_torus", (0.7, 1.9))
    ops = decompose(pg.ambient, pg.tangent_frame, pg.normal_frame)
    flags = classify(ops, pg.mean_normal_components)
    assert flags["is_lagrangian"] is True
    assert flags["is_complex"] is False
    assert norm(ops.tt, 2) < 1e-12 and norm(ops.nn, 2) < 1e-12


def test_hypersphere_flags():
    space, pg = _frames_from_immersion("flat_c2", "round_hypersphere", (0.7, 1.1, 0.9))
    ops = decompose(pg.ambient, pg.tangent_frame, pg.normal_frame)
    flags = classify(ops, pg.mean_normal_components)
    assert tuple(flags) == FLAGS
    assert flags["is_hypersurface"] and not flags["is_curve"]
    assert flags["is_complex"] is False and flags["is_lagrangian"] is False
    assert all(flags[k] is None for k in FLAGS[4:])
    # codimension 1 forces the normal-normal block to vanish
    assert norm(ops.nn, 2) < 1e-12


@pytest.mark.parametrize("space_name, imm_name", [("flat_c2", "round_hypersphere"),
                                                  ("sasakian_r5", "hyperplane_y1")])
def test_flags_over_sample_axes_are_object_columns(space_name, imm_name):
    # every flag is a column over the samples, of None where the ambient kind
    # decides nothing, and each row is the flag of that point alone
    space = catalog.ambient(space_name)
    imm = catalog.immersion(imm_name, space)
    grid = imm.grid()[:3]
    pg = point_geometry(space, imm, grid, order=2)
    ops = decompose(pg.ambient, pg.tangent_frame, pg.normal_frame)
    flags = classify(ops, pg.mean_normal_components)
    assert tuple(flags) == FLAGS
    assert all(v.dtype == object and v.shape == (3,) for v in flags.values())
    for i, u in enumerate(grid):
        _, one = _frames_from_immersion(space_name, imm_name, u)
        ops = decompose(one.ambient, one.tangent_frame, one.normal_frame)
        row = classify(ops, one.mean_normal_components)
        assert {k: v[i] for k, v in flags.items()} == row


def test_hyperplane_reeb_tangent_and_lemma():
    space, pg = _frames_from_immersion("sasakian_r5", "hyperplane_y1", (0.2, -0.4, 0.3, 0.6))
    ops = decompose(pg.ambient, pg.tangent_frame, pg.normal_frame)
    flags = classify(ops, pg.mean_normal_components)
    assert tuple(flags) == FLAGS
    assert flags["xi_tangent"] is True and flags["xi_normal"] is False
    assert flags["is_complex"] is None and flags["is_lagrangian"] is None
    pt, nt = reeb_tangent_hypersurface_identities(ops)
    assert pt <= 1e-9 and nt <= 1e-9


def test_adjoint_identity_tn_nt():
    # <NX, nu> = -<X, t nu> for every frame pairing
    s5 = catalog.ambient("sasakian_sphere_s5")
    rng = np.random.RandomState(5)
    p = rng.randn(6)
    p /= np.linalg.norm(p)
    for _ in range(25):
        tf, nf = random_orthonormal_frames(s5, p, int(rng.randint(1, 5)), rng)
        ops = decompose(PointAmbient(s5, p), tf, nf)
        assert np.abs(ops.tn + ops.nt.T).max() < 1e-12


def test_xi_normal_forces_anti_invariance():
    # hyperplane {z = const} in cosymplectic R^5 has xi = dz normal, and
    # phi maps the tangent 4-plane to itself: xi normal does not force
    # anti-invariance there, and the flags report both as they are
    co = catalog.ambient("cosymplectic_r5")
    tf = np.eye(5)[:4]
    nf = np.eye(5)[4:]
    ops = decompose(PointAmbient(co, (0.1, 0.2, 0.3, 0.4, 0.5)), tf, nf)
    flags = classify(ops, None)
    assert flags["xi_normal"] is True
    assert flags["is_anti_invariant"] is False


def test_frame_independence_of_flags_and_relations():
    space = catalog.ambient("sasakian_r5")
    imm = catalog.immersion("hyperplane_y1", space)
    pg = point_geometry(space, imm, (0.1, 0.3, -0.2, 0.5), order=2)
    rng = np.random.RandomState(7)
    base_ops = decompose(pg.ambient, pg.tangent_frame, pg.normal_frame)
    base_rel = verify_relations(base_ops)
    base_flags = classify(base_ops, pg.mean_normal_components)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.randn(4, 4))
        tf = q @ pg.tangent_frame
        s = rng.choice([-1.0, 1.0])
        nf = s * pg.normal_frame
        ops = decompose(pg.ambient, tf, nf)
        rel = verify_relations(ops)
        for key in base_rel:
            assert rel[key] == pytest.approx(base_rel[key], abs=1e-9)
        assert classify(ops, None) == {
            k: v for k, v in base_flags.items()
            if k not in ("phi_h_tangent", "phi_h_normal")} | {
            "phi_h_tangent": None, "phi_h_normal": None}


def test_phi_h_flags_not_applicable_when_minimal():
    space, pg = _frames_from_immersion("sasakian_r5", "hyperplane_y1", (0.0, 0.0, 0.0, 0.0))
    ops = decompose(pg.ambient, pg.tangent_frame, pg.normal_frame)
    flags = classify(ops, pg.mean_normal_components)
    assert pg.mean_curvature_norm < 1e-12
    assert flags["phi_h_tangent"] is None and flags["phi_h_normal"] is None


def test_clifford_torus_flags():
    space, pg = _frames_from_immersion(
        "sasakian_sphere_s5", "clifford_torus_s5", (0.8, 1.1, 0.9, 2.2))
    ops = decompose(pg.ambient, pg.tangent_frame, pg.normal_frame)
    flags = classify(ops, pg.mean_normal_components)
    assert flags["xi_tangent"] is True
    assert flags["phi_h_tangent"] is True
    assert flags["phi_h_normal"] is False
