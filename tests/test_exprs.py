"""Expression language: grammar, diagnostics, jet evaluation."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from biharm.exprs import (
    BinOp,
    Call,
    Const,
    DomainError,
    ExprError,
    ExprSyntaxError,
    Lit,
    Neg,
    Param,
    UnboundConstantError,
    compile_program,
    evaluate_expr,
    evaluate_jet,
    expr_constants,
    parse_expression,
)
from biharm.jets import Jet, seed_point

from conftest import fd_partial, poly_partial, poly_to_source, random_poly


def test_ast_spec_example():
    e = parse_expression("u1^2 + sin(u2)", ["u1", "u2"])
    assert e == BinOp("+", BinOp("^", Param("u1", 0), Lit(2.0)), Call("sin", Param("u2", 1)))


def test_constants_ast():
    e = parse_expression("2*pi*r", [])
    assert expr_constants(e) == {"pi", "r"}
    assert evaluate_expr(e, (), {"r": 3.0}) == pytest.approx(6.0 * math.pi)


def test_unbalanced_parenthesis_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("sin(u1", ["u1"])
    assert err.value.position == 7


def test_unknown_token_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("u1 + @", ["u1"])
    assert err.value.position == 6


def test_trailing_input():
    with pytest.raises(ExprSyntaxError):
        parse_expression("1 2", [])


def test_unknown_function():
    with pytest.raises(ExprSyntaxError):
        parse_expression("sinh(u1)", ["u1"])


def test_duplicate_params_rejected():
    with pytest.raises(ExprError):
        parse_expression("u1", ["u1", "u1"])


def test_precedence_and_associativity():
    assert evaluate_expr(parse_expression("2+3*4", []), ()) == 14.0
    assert evaluate_expr(parse_expression("2*3^2", []), ()) == 18.0
    assert evaluate_expr(parse_expression("-2^2", []), ()) == -4.0
    assert evaluate_expr(parse_expression("2^3^2", []), ()) == 512.0
    assert evaluate_expr(parse_expression("2^-2", []), ()) == 0.25
    assert evaluate_expr(parse_expression("6/3/2", []), ()) == 1.0
    assert evaluate_expr(parse_expression("1-2-3", []), ()) == -4.0


def test_whitespace_insensitive():
    a = parse_expression("u1 ^ 2 +  sin( u2 )", ["u1", "u2"])
    b = parse_expression("u1^2+sin(u2)", ["u1", "u2"])
    assert a == b


def test_evaluate_jet_spec_example():
    e = parse_expression("u1^2 + sin(u2)", ["u1", "u2"])
    j = evaluate_jet(e, (1.0, 0.0), 2)
    assert j.value == 1.0
    assert j.partial((1, 0)) == 2.0
    assert j.partial((0, 1)) == 1.0
    assert j.partial((2, 0)) == 2.0
    assert j.partial((0, 2)) == 0.0
    assert j.partial((1, 1)) == 0.0


def test_order_zero_jet_is_plain_evaluation():
    e = parse_expression("exp(u1)*atan(u1)+3", ["u1"])
    j = evaluate_jet(e, (0.37,), 0)
    assert j.order == 0
    assert j.value == pytest.approx(evaluate_expr(e, (0.37,)), rel=1e-15)


def test_unbound_constant():
    e = parse_expression("k*u1", ["u1"])
    with pytest.raises(UnboundConstantError):
        evaluate_jet(e, (1.0,), 1)


def test_domain_errors_surface():
    with pytest.raises(DomainError):
        evaluate_expr(parse_expression("log(0-1)", []), ())
    with pytest.raises(DomainError):
        evaluate_expr(parse_expression("1/(u1-u1)", ["u1"]), (2.0,))
    with pytest.raises(DomainError):
        evaluate_expr(parse_expression("0^(0-2)", []), ())
    with pytest.raises(DomainError):
        evaluate_expr(parse_expression("(0-2)^0.5", []), ())


def test_param_free_subexpression_stays_float():
    # sqrt of an exact zero constant must not trip the jet sqrt guard
    e = parse_expression("sqrt(1-rho^2)+0*u1", ["u1"])
    j = evaluate_jet(e, (0.4,), 3, {"rho": 1.0})
    assert j.value == 0.0


def test_parameter_dependent_exponent():
    e = parse_expression("u1^u2", ["u1", "u2"])
    j = evaluate_jet(e, (1.7, 2.3), 2)
    assert j.value == pytest.approx(1.7**2.3, rel=1e-13)
    expected = fd_partial(lambda p: p[0] ** p[1], [1.7, 2.3], (1, 1))
    assert j.partial((1, 1)) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_polynomial_expressions_match_symbolic_differentiation(seed):
    rng = np.random.RandomState(seed)
    nvars = int(rng.randint(1, 4))
    params = [f"u{i+1}" for i in range(nvars)]
    coeffs = random_poly(rng, nvars, degree=4)
    expr = parse_expression(poly_to_source(coeffs, params), params)
    point = rng.uniform(-1.0, 1.0, nvars)
    j = evaluate_jet(expr, point, 4)
    for mono in j.space.indices:
        assert j.partial(mono) == pytest.approx(
            poly_partial(coeffs, mono, point), abs=1e-12, rel=1e-12)


def test_mixed_expression_against_fd_oracle():
    src = "tan(u1)*exp(u2/2) + atan(u1*u2) - sqrt(u1+2)"
    e = parse_expression(src, ["u1", "u2"])
    point = (0.3, -0.4)

    def plain(pt):
        return mp.tan(pt[0]) * mp.exp(pt[1] / 2) + mp.atan(pt[0] * pt[1]) - mp.sqrt(pt[0] + 2)

    j = evaluate_jet(e, point, 4)
    for mono in j.space.indices:
        expected = fd_partial(plain, point, mono)
        assert j.partial(mono) == pytest.approx(expected, rel=1e-8, abs=1e-8), mono


def test_chain_rule_against_jet_composition():
    # jets of f(g(u1,u2)) equal f applied to the jet of g
    outer = parse_expression("sin(v1) + v1^3", ["v1"])
    inner = parse_expression("u1^2 + u2", ["u1", "u2"])
    composed = parse_expression("sin(u1^2 + u2) + (u1^2 + u2)^3", ["u1", "u2"])
    point = (0.6, -0.3)
    g = evaluate_jet(inner, point, 4)
    from biharm.exprs import evaluate_jet_env

    via_env = evaluate_jet_env(outer, [g])
    direct = evaluate_jet(composed, point, 4)
    assert np.abs(via_env.coeffs - direct.coeffs).max() < 1e-10


def test_non_finite_float_results_raise_domain_error():
    # plain float arithmetic gives inf, the float power overflows: both are
    # domain faults, as for jets
    with pytest.raises(DomainError):
        evaluate_expr(parse_expression("u1*u1", ["u1"]), (1e200,))
    with pytest.raises(DomainError):
        evaluate_expr(parse_expression("u1^2", ["u1"]), (1e200,))
    with pytest.raises(DomainError):
        evaluate_expr(parse_expression("sin(u1*u1)", ["u1"]), (1e200,))


def test_non_finite_jet_output_raises_domain_error():
    # a jet output is checked as a float one is: a non-finite constant in
    # it raises on jet parameters, one point or a batch of rows
    prog = compile_program(parse_expression("2*c + u1", ["u1"]))
    for env, c in ((seed_point([0.3], 2), math.inf),
                   (seed_point([[0.3], [0.4]], 2), np.array([0.5, math.nan]))):
        with pytest.raises(DomainError):
            prog.run(env, {"c": c})
        with pytest.raises(DomainError):
            prog.jets(env, {"c": c})
    assert prog.run(seed_point([0.3], 2), {"c": 1.0})[0].value == 2.3


def test_program_shares_subtrees():
    e = parse_expression("sin(u1*k)/(1+u1^2)", ["u1"])
    f = parse_expression("cos(k*u1)/(1+u1^2)", ["u1"])
    assert len(compile_program((e, e))) == len(compile_program(e))
    # f adds only cos and its quotient: u1*k, 1+u1^2 and its reciprocal are shared
    assert len(compile_program((e, f))) == len(compile_program(e)) + 2
    assert compile_program(((e, f), (f, e))).shape == (2, 2)


def test_program_reads_constants_at_each_run():
    prog = compile_program(parse_expression("k*u1 + pi", ["u1"]))
    assert prog.run([2.0], {"k": 3.0}) == [6.0 + math.pi]
    assert prog.run([2.0], {"k": 5.0, "pi": 0.0}) == [10.0]
    with pytest.raises(UnboundConstantError):
        prog.run([2.0])


def test_reloaded_models_reuse_parse_trees_and_programs():
    assert parse_expression("u1*k + 1", ["u1"]) is parse_expression("u1*k + 1", ("u1",))
    from biharm import catalog

    one, two = catalog.ambient("cp2", {"rho": 1.0}), catalog.ambient("cp2", {"rho": 2.0})
    assert one.metric == two.metric
    assert one.program("metric") is two.program("metric")
    # one program, each model's own constants
    x = (0.3, -0.2, 0.5, 0.1)
    g1, g2 = one.values("metric", x), two.values("metric", x)
    assert not np.array_equal(g1, g2)
    assert np.array_equal(g2, compile_program(two.metric).values(x, {"rho": 2.0}))


_LEAVES = (Param("u1", 0), Param("u2", 1), Param("u3", 2), Const("k"), Lit(0.5), Lit(2.0))


def _grow(pool, step):
    kind, i, j = step
    a, b = pool[i % len(pool)], pool[j % len(pool)]
    return (
        BinOp("+", a, b),
        BinOp("-", a, b),
        BinOp("*", a, b),
        BinOp("*", b, a),
        BinOp("/", a, BinOp("+", Lit(2.0), Call("cos", b))),
        BinOp("^", a, Lit(2.0)),
        Neg(a),
        Call("sin", a),
        Call("atan", a),
        Call("exp", Call("sin", a)),
        Call("sqrt", BinOp("+", Lit(1.0), BinOp("*", a, a))),
        Call("log", BinOp("+", Lit(1.5), Call("cos", b))),
    )[kind]


def _bits(v):
    return (v.coeffs if isinstance(v, Jet) else np.float64(v)).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 99), st.integers(0, 99)),
                min_size=1, max_size=14),
       st.lists(st.integers(0, 99), min_size=2, max_size=6),
       st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
# (s + u1, s^2 * (s + u1)) with s = u1 + u3: together, s + u1 is met before
# s^2, so an operand order that followed compile order would flip the product
@example([(0, 0, 2), (0, 6, 0), (5, 6, 1), (2, 8, 7)], [7, 9], [0.3, -0.6, 0.8])
def test_program_entries_equal_their_own_programs_bitwise(steps, picks, point):
    # a tuple drawn from one pool of growing subtrees shares many of them;
    # compiled together, every entry must still be bit for bit what the
    # entry's own program gives, on floats and on order-4 jets
    pool = list(_LEAVES)
    for step in steps:
        pool.append(_grow(pool, step))
    exprs = tuple(pool[p % len(pool)] for p in picks)
    bindings = {"k": 0.7}
    prog = compile_program(exprs)
    for env in ([float(x) for x in point], seed_point(point, 4)):
        try:
            alone = [compile_program(e).run(env, bindings)[0] for e in exprs]
        except DomainError:
            with pytest.raises(DomainError):
                prog.run(env, bindings)
            continue
        together = prog.run(env, bindings)
        assert [_bits(v) for v in together] == [_bits(v) for v in alone]


def test_program_over_a_batch_of_jets_equals_each_element_bitwise():
    # One run over jet parameters of batch shape (3,) against a run per
    # element; the field has a constant entry, which becomes a constant jet.
    srcs = (("u1*u2 + sin(u1)", "2"), ("exp(u2)/(1 + u1*u1)", "sqrt(u1 + 3)*u2^3"))
    prog = compile_program(tuple(tuple(parse_expression(s, ["u1", "u2"]) for s in row)
                                 for row in srcs))
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, (3, 2))
    env = [Jet(j.space, np.stack([seed_point(p, 3)[k].coeffs for p in pts]))
           for k, j in enumerate(seed_point(pts[0], 3))]
    batch = prog.jets(env)
    assert batch.shape == (3, 2, 2)
    for i, p in enumerate(pts):
        assert np.array_equal(batch[i].coeffs, prog.jets(seed_point(p, 3)).coeffs)


def _row(v, i):
    """Row ``i`` of a run output bound over rows, or the output itself when
    no array constant reached it."""
    return v[i] if isinstance(v, (np.ndarray, Jet)) and v.shape else v


def test_array_constant_runs_each_row_as_its_own_float_binding_bitwise():
    # Constants bound to arrays over three rows: every row of a run and of
    # the jets is bit for bit the run with that row's values bound as
    # floats.  Float-path functions (tan, sqrt) and powers with a constant
    # base or exponent (k has an integer and a fractional row) go element
    # by element; products, sums and quotients are numpy's.
    srcs = ("tan(c)*u1", "sqrt(1 - c^2)*cos(u2)", "c^u1", "u2^k", "2^c*u1", "c^k",
            "u1/c", "(c + 1)/c", "c", "u1*u2")
    prog = compile_program(tuple(parse_expression(s, ["u1", "u2"]) for s in srcs))
    rows = {"c": np.array([0.3, 0.5, 0.7]), "k": np.array([2.0, 0.5, -1.0])}
    per_row = [{name: float(v[i]) for name, v in rows.items()} for i in range(3)]
    pts = np.array([[0.4, 0.2], [0.9, 1.3], [1.3, 0.8]])

    run = prog.run([0.4, 0.2], rows)
    jets = prog.jets(seed_point(pts, 3), rows)
    assert jets.shape == (3, len(srcs))
    assert isinstance(run[-1], float)  # no constant: a plain float, as before
    for i, bindings in enumerate(per_row):
        alone = prog.run([0.4, 0.2], bindings)
        assert [_bits(_row(v, i)) for v in run] == [_bits(v) for v in alone]
        assert jets[i].coeffs.tobytes() == prog.jets(seed_point(pts[i], 3), bindings).coeffs.tobytes()


@pytest.mark.parametrize("src, bad", [
    ("log(c)*u1", -1.0),       # log of a non-positive value
    ("u1/c", 0.0),             # division by zero, jet dividend
    ("(1 + c)/c", 0.0),        # division by zero, constant dividend
    ("c^-1*u1", 0.0),          # 0 raised to a negative power
    ("2*c", math.inf),         # a non-finite (constant-only) output
])
def test_array_constant_with_one_bad_row_raises_domain_error(src, bad):
    prog = compile_program(parse_expression(src, ["u1"]))
    rows = {"c": np.array([0.5, bad, 2.0])}
    for env in ([0.3], seed_point([[0.3], [0.4], [0.5]], 2)):
        with pytest.raises(DomainError):
            prog.run(env, rows)
    with pytest.raises(DomainError):  # as the float run of that row alone
        prog.run([0.3], {"c": bad})
    prog.run([0.3], {"c": 0.5})
