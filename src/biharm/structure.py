"""Splitting the ambient structure tensor along a submanifold.

Applying J (or phi) to orthonormal tangent and normal frames and projecting
yields four operators, stored by what they do:

=====  ===================  =============================
block  complex case         contact case
=====  ===================  =============================
tt     tangent -> tangent   tangent -> tangent
tn     tangent -> normal    tangent -> normal
nt     normal -> tangent    normal -> tangent
nn     normal -> normal     normal -> normal
=====  ===================  =============================

The algebraic relations these blocks inherit from J^2 = -Id (resp.
phi^2 = -Id + eta (x) xi) are checked by :func:`verify_relations`; the norms
of individual blocks drive submanifold classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .ambient import (
    KIND_COMPLEX,
    AmbientModel,
    GeometryError,
    PointAmbient,
    metric_at,
    structure_at,  # noqa: F401
    tangent_projector,
)

# structure_at is imported for bench/tracing.py, which wraps it in this
# module's namespace; decompose reads the structure from the sample's
# snapshot, ``pg.ambient``.

FRAME_TOL = 1e-10
CLASSIFY_TOL = 1e-8       # block norms below it count as zero in classification


@dataclass
class DecompositionOperators:
    kind: str
    tt: np.ndarray
    tn: np.ndarray
    nt: np.ndarray
    nn: np.ndarray
    xi_tan: np.ndarray | None = None   # contact: tangent-frame components of xi
    xi_nor: np.ndarray | None = None   # contact: normal-frame components of xi

    @property
    def m(self) -> int:
        return self.tt.shape[0]

    @property
    def codim(self) -> int:
        return self.nn.shape[0]


def decompose(amb: PointAmbient, tangent_frame, normal_frame) -> DecompositionOperators:
    """Frame components of the tangential/normal split of J (or phi), with
    the metric and the structure read from the snapshot ``amb``.

    Frames must be orthonormal for the ambient metric there (checked to
    1e-10); rows are vectors in the ambient representation.
    """
    g = amb.g
    frames = np.vstack([tangent_frame, normal_frame])
    gram = frames @ g @ frames.T
    if np.abs(gram - np.eye(len(frames))).max() > FRAME_TOL:
        raise GeometryError("frames are not orthonormal for the ambient metric")

    S, xi = (amb.structure, None) if amb.space.kind == KIND_COMPLEX else amb.structure

    Xt = np.asarray(tangent_frame, dtype=float)
    Nu = np.asarray(normal_frame, dtype=float)
    ops = DecompositionOperators(
        kind=amb.space.kind,
        tt=Xt @ g @ (S @ Xt.T),
        tn=Nu @ g @ (S @ Xt.T),
        nt=Xt @ g @ (S @ Nu.T),
        nn=Nu @ g @ (S @ Nu.T),
    )
    if xi is not None:
        ops.xi_tan = Xt @ g @ xi
        ops.xi_nor = Nu @ g @ xi
    return ops


def verify_relations(ops: DecompositionOperators) -> dict:
    """Spectral-norm residual of each relation the split must satisfy."""
    tt, tn, nt, nn = ops.tt, ops.tn, ops.nt, ops.nn
    m, c = ops.m, ops.codim

    def norm(a):
        return float(np.linalg.norm(a, 2)) if a.size else 0.0

    if ops.kind == KIND_COMPLEX:
        return {
            "tangent_square": norm(tt @ tt + nt @ tn + np.eye(m)),
            "normal_square": norm(nn @ nn + tn @ nt + np.eye(c)),
            "mixed_normal_to_tangent": norm(tt @ nt + nt @ nn),
            "mixed_tangent_to_normal": norm(tn @ tt + nn @ tn),
            "adjoint_skew": norm(tn + nt.T),
        }
    xt, xn = ops.xi_tan, ops.xi_nor
    return {
        "tangent_square": norm(tt @ tt + nt @ tn + np.eye(m) - np.outer(xt, xt)),
        "normal_square": norm(nn @ nn + tn @ nt + np.eye(c) - np.outer(xn, xn)),
        "mixed_normal_to_tangent": norm(tt @ nt + nt @ nn - np.outer(xt, xn)),
        "mixed_tangent_to_normal": norm(tn @ tt + nn @ tn - np.outer(xn, xt)),
        "adjoint_skew": norm(tn + nt.T),
        "reeb_kernel": float(np.linalg.norm(tt @ xt + nt @ xn)
                             + np.linalg.norm(tn @ xt + nn @ xn)),
    }


@dataclass
class ClassificationFlags:
    is_curve: bool
    is_hypersurface: bool
    is_complex: bool | None = None
    is_lagrangian: bool | None = None
    is_invariant: bool | None = None
    is_anti_invariant: bool | None = None
    xi_tangent: bool | None = None
    xi_normal: bool | None = None
    phi_h_tangent: bool | None = None
    phi_h_normal: bool | None = None
    norms: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The flags by name, in field order: every field but the norms."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "norms"}


def classify(ops: DecompositionOperators, dims, h_normal=None) -> ClassificationFlags:
    """Per-point flags from Frobenius norms of the decomposition blocks.

    ``dims`` is (intrinsic dimension, ambient manifold dimension);
    ``h_normal`` carries the normal-frame components of the mean curvature
    vector, needed for the phi-H flags (not-applicable at minimal points).
    """
    m, ambient_dim = dims
    norms = {
        "tt": float(np.linalg.norm(ops.tt)),
        "tn": float(np.linalg.norm(ops.tn)),
        "nt": float(np.linalg.norm(ops.nt)),
        "nn": float(np.linalg.norm(ops.nn)),
    }
    flags = ClassificationFlags(
        is_curve=(m == 1),
        is_hypersurface=(m == ambient_dim - 1),
        norms=norms,
    )
    if ops.kind == KIND_COMPLEX:
        flags.is_complex = norms["tn"] < CLASSIFY_TOL and norms["nt"] < CLASSIFY_TOL
        flags.is_lagrangian = (m == 2 and ambient_dim == 4
                               and norms["tt"] < CLASSIFY_TOL and norms["nn"] < CLASSIFY_TOL)
    else:
        flags.is_invariant = norms["tn"] < CLASSIFY_TOL
        flags.is_anti_invariant = norms["tt"] < CLASSIFY_TOL
        norms["xi_tan"] = float(np.linalg.norm(ops.xi_tan))
        norms["xi_nor"] = float(np.linalg.norm(ops.xi_nor))
        flags.xi_tangent = norms["xi_nor"] < CLASSIFY_TOL
        flags.xi_normal = norms["xi_tan"] < CLASSIFY_TOL
        if h_normal is not None and float(np.linalg.norm(h_normal)) > CLASSIFY_TOL:
            norms["s_h"] = float(np.linalg.norm(ops.nn @ h_normal))
            norms["t_h"] = float(np.linalg.norm(ops.nt @ h_normal))
            flags.phi_h_tangent = norms["s_h"] < CLASSIFY_TOL
            flags.phi_h_normal = norms["t_h"] < CLASSIFY_TOL
    return flags


def reeb_tangent_hypersurface_identities(ops: DecompositionOperators):
    """(|P t|, |N t + Id|): both must vanish on a hypersurface with tangent Reeb field."""
    pt = ops.tt @ ops.nt
    nt_plus = ops.tn @ ops.nt + np.eye(ops.codim)
    return float(np.linalg.norm(pt)), float(np.linalg.norm(nt_plus))


def random_orthonormal_frames(space: AmbientModel, x, m: int, rng) -> tuple:
    """A random metric-orthonormal splitting at ``x`` (test scaffolding)."""
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
