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

from dataclasses import dataclass

import numpy as np

from .ambient import (
    KIND_COMPLEX,
    GeometryError,
    PointAmbient,
    mat_vec,
    metric_at,  # noqa: F401
    norm,
    objects,
    outer,
    spectral,
    structure_at,  # noqa: F401
    tangent_projector,  # noqa: F401
)

# metric_at, structure_at and tangent_projector are imported for
# bench/tracing.py, which wraps them in this module's namespace; decompose
# reads the metric and the structure from the samples' snapshot,
# ``pg.ambient``.

FRAME_TOL = 1e-10
CLASSIFY_TOL = 1e-8       # block norms below it count as zero in classification


@dataclass
class DecompositionOperators:
    """The blocks at every sample, with the sample axes S in front."""

    kind: str
    tt: np.ndarray
    tn: np.ndarray
    nt: np.ndarray
    nn: np.ndarray
    xi_tan: np.ndarray | None = None   # contact: tangent-frame components of xi
    xi_nor: np.ndarray | None = None   # contact: normal-frame components of xi

    @property
    def m(self) -> int:
        return self.tt.shape[-1]

    @property
    def codim(self) -> int:
        return self.nn.shape[-1]


def decompose(amb: PointAmbient, tangent_frame, normal_frame) -> DecompositionOperators:
    """Frame components of the tangential/normal split of J (or phi) at the
    samples of the snapshot ``amb``, which gives the metric and the structure.

    Frames must be orthonormal for the ambient metric there (checked to
    1e-10); rows are vectors in the ambient representation.
    """
    g = amb.g
    Xt = np.asarray(tangent_frame, dtype=float)
    Nu = np.asarray(normal_frame, dtype=float)
    frames = np.concatenate([Xt, Nu], axis=-2)
    gram = frames @ g @ frames.mT
    if np.abs(gram - np.eye(frames.shape[-2])).max() > FRAME_TOL:
        raise GeometryError("frames are not orthonormal for the ambient metric")

    S, xi = (amb.structure, None) if amb.space.kind == KIND_COMPLEX else amb.structure
    return DecompositionOperators(
        kind=amb.space.kind,
        tt=Xt @ g @ (S @ Xt.mT),
        tn=Nu @ g @ (S @ Xt.mT),
        nt=Xt @ g @ (S @ Nu.mT),
        nn=Nu @ g @ (S @ Nu.mT),
        xi_tan=None if xi is None else mat_vec(Xt @ g, xi),
        xi_nor=None if xi is None else mat_vec(Nu @ g, xi),
    )


def verify_relations(ops: DecompositionOperators) -> dict:
    """Spectral-norm residual of each relation the split must satisfy, at
    every sample."""
    tt, tn, nt, nn = ops.tt, ops.tn, ops.nt, ops.nn
    m, c = ops.m, ops.codim
    if ops.kind == KIND_COMPLEX:
        return {
            "tangent_square": spectral(tt @ tt + nt @ tn + np.eye(m)),
            "normal_square": spectral(nn @ nn + tn @ nt + np.eye(c)),
            "mixed_normal_to_tangent": spectral(tt @ nt + nt @ nn),
            "mixed_tangent_to_normal": spectral(tn @ tt + nn @ tn),
            "adjoint_skew": spectral(tn + nt.mT),
        }
    xt, xn = ops.xi_tan, ops.xi_nor
    return {
        "tangent_square": spectral(tt @ tt + nt @ tn + np.eye(m) - outer(xt, xt)),
        "normal_square": spectral(nn @ nn + tn @ nt + np.eye(c) - outer(xn, xn)),
        "mixed_normal_to_tangent": spectral(tt @ nt + nt @ nn - outer(xt, xn)),
        "mixed_tangent_to_normal": spectral(tn @ tt + nn @ tn - outer(xn, xt)),
        "adjoint_skew": spectral(tn + nt.mT),
        "reeb_kernel": (norm(mat_vec(tt, xt) + mat_vec(nt, xn))
                        + norm(mat_vec(tn, xt) + mat_vec(nn, xn))),
    }


# The classification flags, in report order; an ambient kind decides only
# some of them, and classify sets the others to None.
FLAGS = ("is_curve", "is_hypersurface", "is_complex", "is_lagrangian", "is_invariant",
         "is_anti_invariant", "xi_tangent", "xi_normal", "phi_h_tangent", "phi_h_normal")


def classify(ops: DecompositionOperators, h_normal=None) -> dict:
    """Flags at every sample from Frobenius norms of the decomposition blocks,
    keyed by :data:`FLAGS` in order: each a bool, or None where the sample
    decides nothing; over sample axes S, each flag is an object column of
    them, also where the ambient kind decides none of them.

    The blocks give the dimension and the codimension; ``h_normal`` carries
    the normal-frame components of the mean curvature vector, needed for the
    phi-H flags (None at minimal samples, where |H| decides nothing).
    """
    m, codim = ops.m, ops.codim
    batch = ops.tt.shape[:-2]

    def flag(value, keep=True):
        return objects(np.broadcast_to(value, batch), keep)

    small = {k: norm(getattr(ops, k), 2) < CLASSIFY_TOL for k in ("tt", "tn", "nt", "nn")}
    flags = {name: flag(None) for name in FLAGS}
    flags["is_curve"] = flag(m == 1)
    flags["is_hypersurface"] = flag(codim == 1)
    if ops.kind == KIND_COMPLEX:
        flags["is_complex"] = flag(small["tn"] & small["nt"])
        flags["is_lagrangian"] = flag((m == 2 and codim == 2) & small["tt"] & small["nn"])
    else:
        flags["is_invariant"] = flag(small["tn"])
        flags["is_anti_invariant"] = flag(small["tt"])
        flags["xi_tangent"] = flag(norm(ops.xi_nor) < CLASSIFY_TOL)
        flags["xi_normal"] = flag(norm(ops.xi_tan) < CLASSIFY_TOL)
        if h_normal is not None:
            decided = norm(h_normal) > CLASSIFY_TOL
            flags["phi_h_tangent"] = flag(norm(mat_vec(ops.nn, h_normal)) < CLASSIFY_TOL, decided)
            flags["phi_h_normal"] = flag(norm(mat_vec(ops.nt, h_normal)) < CLASSIFY_TOL, decided)
    return flags
