"""Random inline curves and surfaces through ``biharm check``, random
normal fields of an embedded ambient, and random linear charts of flat C^2.

Components come from a small grammar (polynomials, ``sin cos exp sqrt
log``, quotients, integer powers) over bound names only, so every fault is
geometric or arithmetic: it must fail its grid point or the run, never
escape the CLI, and a partly failed grid must never read as biharmonic.
"""

import json
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from biharm import catalog
from biharm.ambient import tangent_projector
from biharm.cli import main as cli_main
from biharm.residuals import residual_general
from biharm.scenario import load_scenario
from biharm.submanifold import normal_derivatives, point_geometry

AMBIENTS = {"flat_c2": 4, "cp2": 4, "sasakian_r5": 5, "cosymplectic_r5": 5,
            "kenmotsu_hyperbolic": 5}
ALL_CHECKS = ("residual", "characterization", "bound", "audit", "relations", "gauss",
              "structure", "pseudo_umbilical")


def _expressions(names):
    leaves = st.sampled_from(names + ["k", "pi", "0.5", "2", "1"])

    def extend(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "log"]), sub)
            .map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(sub, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        )

    return st.recursive(leaves, extend, max_leaves=5)


@st.composite
def scenarios(draw):
    ambient = draw(st.sampled_from(sorted(AMBIENTS)))
    m = draw(st.integers(1, 2))
    params = [f"u{i + 1}" for i in range(m)]
    exprs = _expressions(params)
    # the first m components carry their parameter, so most draws immerse
    comps = [f"{p} + {draw(exprs)}" for p in params]
    comps += [draw(exprs) for _ in range(AMBIENTS[ambient] - m)]
    axes = []
    for _ in params:
        lo = draw(st.floats(-1.0, 0.5))
        axes.append({"lo": lo, "hi": lo + draw(st.floats(0.1, 1.5)),
                     "samples": draw(st.integers(1, 3))})
    return {
        "ambient": {"catalog": ambient},
        "immersion": {"components": comps, "params": params, "domain": {"axes": axes}},
        "constants": {"k": 0.7},
        "checks": [{"op": op} for op in ALL_CHECKS],
    }


@settings(max_examples=30, deadline=None)
@given(scenarios())
def test_random_inline_scenarios_never_escape_the_cli(tmp_path_factory, doc):
    folder = tmp_path_factory.mktemp("fuzz")
    scn, out = folder / "scenario.json", folder / "report.json"
    scn.write_text(json.dumps(doc))
    code = cli_main(["check", str(scn), "--out", str(out)])
    assert code in (0, 1, 2)
    if code != 2:
        agg = json.loads(out.read_text())["aggregates"]
        assert not (agg["verdict"] == "ProperBiharmonic" and agg["points_failed"] > 0)


_S5_IN_R7 = json.loads((Path(__file__).parent / "data"
                        / "inline_s5_r7_mixed_normals.json").read_text())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       st.lists(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), min_size=1, max_size=3))
def test_projector_of_mixed_normals_is_the_orthogonal_one(entries, points):
    # the normals (p, 0) and e7 of S^5 x {0} in R^7, mixed by an invertible A
    A = np.array(entries).reshape(2, 2)
    assume(np.linalg.norm(A, 2) >= 0.1 and np.linalg.cond(A) <= 1e3)
    p = np.array(points)
    assume((np.linalg.norm(p, axis=-1) >= 0.1).all())
    x = np.concatenate([p / np.linalg.norm(p, axis=-1)[:, None], np.zeros((len(p), 1))], -1)
    doc = dict(_S5_IN_R7, constants=dict(_S5_IN_R7["constants"], a11=A[0, 0], a12=A[0, 1],
                                         a21=A[1, 0], a22=A[1, 1]))
    doc["ambient"] = dict(doc["ambient"], normals=[
        [f"a{i}1*p{k}" for k in range(1, 7)] + [f"a{i}2"] for i in (1, 2)])
    P = tangent_projector(load_scenario(doc).ambient, x)
    normals = A @ np.stack([x, np.broadcast_to(np.eye(7)[6], x.shape)], axis=-2)
    orthogonal = np.eye(7) - x[:, :, None] * x[:, None, :] - np.diag([0.0] * 6 + [1.0])
    assert np.abs(P - P.mT).max() <= 1e-12
    assert np.abs(P @ P - P).max() <= 1e-12
    assert np.abs(normals @ P).max() <= 1e-12
    assert np.abs(P - orthogonal).max() <= 1e-12


# catalog immersions of flat C^2 (dimension, parameters, components) to carry into a chart
_FLAT_IMMERSIONS = {
    "round_hypersphere": (3, {"r": 1.3},
                          ("r*cos(u1)", "r*sin(u1)*cos(u2)", "r*sin(u1)*sin(u2)*cos(u3)",
                           "r*sin(u1)*sin(u2)*sin(u3)")),
    "product_torus": (2, {"a": 1.0, "b": 0.6},
                      ("a*cos(u1)", "a*sin(u1)", "b*cos(u2)", "b*sin(u2)")),
}
_J_C2 = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]])


def _orthogonal(entries):
    return np.linalg.qr(np.reshape(entries, (4, 4)))[0]


def _number(v):
    return f"({float(v)!r})"


_SQUARES = st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16)
# x = A y: a pure scale 10^k, or Q1 diag(10^t) Q2 with condition <= 1e3
CHART_CHANGES = st.one_of(
    st.integers(-9, 7).map(lambda k: 10.0**k * np.eye(4)),
    st.tuples(_SQUARES, st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4), _SQUARES).map(
        lambda t: _orthogonal(t[0]) @ np.diag(10.0 ** np.array(t[1])) @ _orthogonal(t[2])),
)


def _frame_lengths(space, imm, u):
    """The lengths of the general residual's parts and of the normal
    derivatives' fields, read as frame components."""
    pg = point_geometry(space, imm, u[:imm.dim])
    nd = normal_derivatives(pg)
    res = residual_general(pg, nd)
    fields = {"normal": res.normal, "tangential": res.tangential, "laplacian": nd.laplacian,
              "grad_h2": nd.grad_h2, "trace_shape_mean": nd.trace_shape_mean,
              "trace_shape_gradient": nd.trace_shape_gradient}
    return {name: float(np.linalg.norm(v)) for name, v in fields.items()}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_FLAT_IMMERSIONS)), CHART_CHANGES,
       st.lists(st.floats(0.5, 2.6), min_size=3, max_size=3))
# the smallest scales, where the metric g = 1e-16 I or 1e-18 I sits at or
# below RANK_TOL^2 and only a rank test relative to the frame's scale passes
@example("round_hypersphere", 1e-8 * np.eye(4), [0.7, 1.9, 2.4])
@example("round_hypersphere", 1e-9 * np.eye(4), [0.7, 1.9, 2.4])
@example("product_torus", 1e-8 * np.eye(4), [0.7, 1.9, 2.4])
@example("product_torus", 1e-9 * np.eye(4), [0.7, 1.9, 2.4])
def test_frame_lengths_do_not_depend_on_the_chart(name, A, u):
    # flat C^2 in the chart x = A y: metric A^T A, J' = A^-1 J A, components A^-1 x(u)
    dim, params, comps = _FLAT_IMMERSIONS[name]
    inv = np.linalg.inv(A)
    doc = {
        "ambient": {"kind": "generalized_complex", "backend": "chart", "dim": 4,
                    "coordinates": ["x1", "y1", "x2", "y2"],
                    "metric": [[_number(v) for v in row] for row in A.T @ A],
                    "complex_structure": [[_number(v) for v in row] for row in inv @ _J_C2 @ A],
                    "coefficients": {"alpha": "0", "beta": "0"}},
        "immersion": {"params": [f"u{i + 1}" for i in range(dim)],
                      "components": [" + ".join(f"{_number(v)}*({c})" for v, c in zip(row, comps))
                                     for row in inv],
                      "domain": {"axes": [{"lo": 0.5, "hi": 2.6, "samples": 2}] * dim}},
        "constants": params,
    }
    cfg = load_scenario(doc)
    space = catalog.ambient("flat_c2")
    ref = _frame_lengths(space, catalog.immersion(name, space, params), np.array(u))
    got = _frame_lengths(cfg.ambient, cfg.immersion, np.array(u))
    # the chart's roundoff grows like eps cond(A)^3 (up to 4e-8 relative at
    # cond(A) near 1e3), so both tolerances widen with it past cond(A) = 10
    widen = 1e-14 * np.linalg.cond(A) ** 3
    for key, value in ref.items():
        if value > 1e-12:
            assert abs(got[key] - value) <= max(1e-10, widen) * value, (key, got[key], value)
        else:
            assert got[key] < max(1e-12, widen), (key, got[key])
