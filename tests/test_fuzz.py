"""Random inline curves and surfaces through ``biharm check``.

Components come from a small grammar (polynomials, ``sin cos exp sqrt
log``, quotients, integer powers) over bound names only, so every fault is
geometric or arithmetic: it must fail its grid point or the run, never
escape the CLI, and a partly failed grid must never read as biharmonic.
"""

import json

from hypothesis import given, settings, strategies as st

from biharm.cli import main as cli_main

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
