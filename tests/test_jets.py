"""Jet arithmetic against calculus oracles."""

import math

import mpmath as mp

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biharm.jets as jets_module
from biharm.jets import (
    DomainError,
    Jet,
    _JetSpace,
    _space,
    embed,
    extract,
    jet_matrix_inverse,
    n_entries,
    seed_point,
    stack,
)

from conftest import fd_partial, fresh_offsets_mul, poly_partial, random_poly


def jet_of(f_expr_jet, x, order=4):
    (u,) = seed_point([x], order)
    return f_expr_jet(u)


def test_variable_seed():
    u1, u2 = seed_point([1.5, -0.5], 3)
    assert u1.value == 1.5
    assert u1.partial((1, 0)) == 1.0
    assert u1.partial((0, 1)) == 0.0
    assert u2.partial((0, 1)) == 1.0


def test_sin_derivative_cycle():
    j = jet_of(lambda u: u.sin(), 0.3)
    exact = [math.sin(0.3), math.cos(0.3), -math.sin(0.3), -math.cos(0.3), math.sin(0.3)]
    for k in range(5):
        assert j.partial((k,)) == pytest.approx(exact[k], abs=1e-14)


def test_spec_example_two_vars():
    u1, u2 = seed_point([1.0, 0.0], 2)
    e = u1.powi(2) + u2.sin()
    assert e.value == 1.0
    assert e.partial((1, 0)) == 2.0
    assert e.partial((0, 1)) == 1.0
    assert e.partial((2, 0)) == 2.0
    assert e.partial((0, 2)) == 0.0
    assert e.partial((1, 1)) == 0.0


def test_order_zero_is_plain_evaluation():
    (u,) = seed_point([0.7], 0)
    j = u.exp() * u.sin() + 2.0
    assert j.order == 0
    assert j.value == pytest.approx(math.exp(0.7) * math.sin(0.7) + 2.0, rel=1e-15)


@pytest.mark.parametrize("fn,plain,name", [
    (lambda u: u.tan(), mp.tan, "tan"),
    (lambda u: u.exp(), mp.exp, "exp"),
    (lambda u: u.log(), mp.log, "log"),
    (lambda u: u.sqrt(), mp.sqrt, "sqrt"),
    (lambda u: u.atan(), mp.atan, "atan"),
    (lambda u: u.reciprocal(), lambda x: 1 / x, "reciprocal"),
    (lambda u: u.powr(1.7), lambda x: x ** mp.mpf("1.7"), "powr"),
])
def test_elementary_functions_match_finite_differences(fn, plain, name):
    x0 = 0.83
    j = jet_of(fn, x0)
    for k in range(5):
        expected = fd_partial(lambda pt: plain(pt[0]), [x0], (k,))
        got = j.partial((k,))
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9), f"{name} order {k}"


def test_tan_jet_spec_tolerance():
    # independent oracle: central differences of the plain evaluation with
    # step 1e-3; every jet entry agrees well inside 1e-6 relative
    j = jet_of(lambda u: u.tan(), 0.3)
    for k in range(1, 5):
        expected = fd_partial(lambda pt: mp.tan(pt[0]), [0.3], (k,), h=1e-3)
        assert abs(j.partial((k,)) - expected) <= 1e-6 * max(1.0, abs(expected))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_polynomial_jets_match_symbolic_differentiation(seed):
    rng = np.random.RandomState(seed)
    nvars = int(rng.randint(1, 4))
    coeffs = random_poly(rng, nvars, degree=4)
    point = rng.uniform(-1.0, 1.0, nvars)
    env = seed_point(point, 4)
    jet = Jet.constant(nvars, 4, 0.0)
    for mono, c in coeffs.items():
        term = Jet.constant(nvars, 4, c)
        for var, k in enumerate(mono):
            for _ in range(k):
                term = term * env[var]
        jet = jet + term
    for mono in jet.space.indices:
        assert jet.partial(mono) == pytest.approx(
            poly_partial(coeffs, mono, point), abs=1e-12, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["add", "sub", "mul", "div"]))
def test_value_slot_ring_homomorphism(seed, op):
    rng = np.random.RandomState(seed)
    a, b = (rng.uniform(-2, 2, 3) for _ in range(2))
    ja = seed_point(a, 3)[0] * 1.3 + a[1] * a[2]
    jb = seed_point(b, 3)[1].sin() + 0.7
    if op == "div" and abs(jb.value) < 1e-3:
        jb = jb + 2.0
    pair = {"add": ja + jb, "sub": ja - jb, "mul": ja * jb, "div": ja / jb}[op]
    val = {"add": ja.value + jb.value, "sub": ja.value - jb.value,
           "mul": ja.value * jb.value, "div": ja.value / jb.value}[op]
    assert pair.value == pytest.approx(val, rel=1e-12, abs=1e-12)


def test_chain_rule_composition():
    # jet of sin(g(u)) equals composing sin with the jet of g
    rng = np.random.RandomState(5)
    for _ in range(20):
        point = rng.uniform(-1.0, 1.0, 2)
        u1, u2 = seed_point(point, 4)
        g = u1 * u1 + u2 * 0.5 + (u1 * u2).sin()
        direct = ((u1 * u1 + u2 * 0.5 + (u1 * u2).sin())).sin()
        composed = g.sin()
        assert np.allclose(direct.coeffs, composed.coeffs, atol=1e-10)


def test_derivative_shifts_entries():
    u1, u2 = seed_point([0.4, 0.9], 4)
    f = (u1 * u2).exp()
    fu1 = f.derivative(0)
    assert fu1.order == 3
    for mono in fu1.space.indices:
        lifted = (mono[0] + 1, mono[1])
        assert fu1.partial(mono) == f.partial(lifted)


def test_truncate_is_prefix():
    (u,) = seed_point([0.3], 4)
    f = u.exp()
    t = f.truncate(2)
    assert t.order == 2
    assert np.array_equal(t.coeffs, f.coeffs[:3])


def test_mixed_order_arithmetic_truncates():
    (u,) = seed_point([0.3], 4)
    a = u.exp()
    b = u.truncate(2).sin()
    assert (a * b).order == 2
    assert (a + b).order == 2


def test_integer_power_negative_base():
    (u,) = seed_point([-1.2], 3)
    j = u.powi(3)
    assert j.value == pytest.approx((-1.2) ** 3)
    assert j.partial((1,)) == pytest.approx(3 * 1.2**2)


def test_domain_errors():
    (u,) = seed_point([0.0], 2)
    with pytest.raises(DomainError):
        u.log()
    with pytest.raises(DomainError):
        u.reciprocal()
    with pytest.raises(DomainError):
        u.sqrt()
    with pytest.raises(DomainError):
        (u - 1.0).powr(0.5)
    with pytest.raises(DomainError):
        u.powi(-2)


def test_embed_and_extract_roundtrip():
    u1, u2 = seed_point([0.4, 0.7], 3)
    f = u1.sin() * u2 + u2 * u2
    big = embed(f, _space(5, 3))
    assert big.nvars == 5
    back = extract(big, 2, 3)
    assert np.allclose(back.coeffs, f.coeffs)


def test_extract_epsilon_slice_is_directional_derivative():
    # augment with one extra variable and evaluate f(u, eps) = sin(u + eps);
    # the eps slice must equal the jet of cos(u)
    (u,) = seed_point([0.6], 3)
    aug_u = embed(u, _space(2, 3))
    eps = Jet.variable(2, 3, 1, 0.0)
    f = (aug_u + eps).sin()
    d_eps = extract(f, 1, 2, extra=1)
    expected = u.cos().truncate(2)
    assert np.allclose(d_eps.coeffs, expected.coeffs, atol=1e-14)


def test_jet_matrix_inverse():
    rng = np.random.RandomState(11)
    u1, u2 = seed_point([0.3, -0.2], 3)
    mat = [
        [u1.exp() + 1.0, u1 * u2],
        [u2.sin(), u2 * u2 + 2.0],
    ]
    inv = jet_matrix_inverse(mat)
    for i in range(2):
        for j in range(2):
            acc = inv[i][0] * mat[0][j] + inv[i][1] * mat[1][j]
            target = 1.0 if i == j else 0.0
            assert acc.value == pytest.approx(target, abs=1e-13)
            assert np.abs(acc.coeffs[1:]).max() < 1e-12


# -- array jets against a per-element loop over scalar jets -----------------

SERIES = {
    "reciprocal": lambda j: j.reciprocal(),
    "exp": lambda j: j.exp(),
    "log": lambda j: j.log(),
    "sqrt": lambda j: j.sqrt(),
    "powr": lambda j: j.powr(1.7),
    "powi": lambda j: j.powi(3),
    "sin": lambda j: j.sin(),
    "cos": lambda j: j.cos(),
    "tan": lambda j: j.tan(),
    "atan": lambda j: j.atan(),
}


def _random_jet(rng, nvars, order, shape):
    coeffs = rng.uniform(-1.0, 1.0, shape + (n_entries(nvars, order),))
    coeffs[..., 0] = rng.uniform(0.5, 1.5, shape)  # inside every series' domain
    return Jet(_space(nvars, order), coeffs)


def _per_element(fn, *jets):
    """``fn`` applied to the scalar jets at every index of the broadcast shape."""
    shape = np.broadcast_shapes(*(j.shape for j in jets))
    out = None
    for idx in np.ndindex(shape):
        parts = [Jet(j.space, np.broadcast_to(j.coeffs, shape + j.coeffs.shape[-1:])[idx].copy())
                 for j in jets]
        c = fn(*parts).coeffs
        if out is None:
            out = np.empty(shape + c.shape)
        out[idx] = c
    return out


def _close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-14, atol=1e-15)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from([(), (1,), (3,), (4,), (2, 3), (3, 4), (3, 1)]),
       st.sampled_from(["same", "trailing", "scalar"]), st.integers(0, 2**32 - 1))
def test_array_kernel_matches_scalar_loop(nvars, order_a, order_b, shape, b_kind, seed):
    rng = np.random.default_rng(seed)
    b_shape = {"same": shape, "trailing": shape[1:], "scalar": ()}[b_kind]
    a = _random_jet(rng, nvars, order_a, shape)
    b = _random_jet(rng, nvars, order_b, b_shape)
    low = min(order_a, order_b)

    sp = _space(nvars, low)
    _close(sp.mul(a.coeffs, b.coeffs), _per_element(lambda x, y: x * y, a, b))
    _close((a * b).coeffs, _per_element(lambda x, y: x * y, a, b))
    _close((a - b).coeffs, _per_element(lambda x, y: x - y, a, b))
    _close(a.truncate(low).coeffs, _per_element(lambda x: x.truncate(low), a))
    if order_a >= 1:
        for var in range(nvars):
            _close(a.derivative(var).coeffs, _per_element(lambda x: x.derivative(var), a))
    for name, fn in SERIES.items():
        _close(fn(a).coeffs, _per_element(fn, a))


@pytest.mark.parametrize("nvars", [1, 3, 9])
def test_order_zero_products_are_the_kernels_bitwise(nvars):
    # order-0 products skip the kernel; a negative zero comes out as the
    # kernel's 0.0, also where an order-2 operand meets an order-0 one
    rng = np.random.default_rng(nvars)
    values = np.concatenate([[0.0, -0.0, -0.0, 1e-300, -1e300, np.inf], rng.normal(size=18)])
    a = Jet(_space(nvars, 0), values.reshape(4, 6, 1))
    b = Jet(_space(nvars, 2), rng.normal(size=(1, 6, _space(nvars, 2).size)))
    b.coeffs[..., 0] = rng.permutation(values)[:6]
    with np.errstate(over="ignore", invalid="ignore"):
        for x, y in ((a, a), (a, b), (b, a)):
            sp, ca, cb = x._pair(y)
            kernel, product = sp.mul(ca, cb), (x * y).coeffs
            assert product.shape == kernel.shape
            assert kernel.tobytes() == product.tobytes()


def test_array_jet_series_rejects_non_finite():
    (u,) = seed_point([800.0], 2)
    with pytest.raises(DomainError):
        u.exp()
    big = Jet.constant(1, 2, np.array([1.0, 1e300]))
    with pytest.raises(DomainError):
        big.powr(2.5)


def test_jet_matrix_inverse_of_array_matches_nested_rows():
    u1, u2 = seed_point([0.3, -0.2], 3)
    rows = [[u1.exp() + 1.0, u1 * u2], [u2.sin(), u2 * u2 + 2.0]]
    from biharm.jets import stack

    assert np.array_equal(jet_matrix_inverse(rows).coeffs,
                          jet_matrix_inverse(stack(rows)).coeffs)


def test_large_batches_run_in_chunks_with_the_same_result():
    rng = np.random.default_rng(3)
    a = _random_jet(rng, 4, 4, (8, 5))
    b = _random_jet(rng, 4, 3, (5,))
    assert np.array_equal((a * b).coeffs, _per_element(lambda x, y: x * y, a, b))


def test_chunked_product_gathers_rows_without_broadcast_copies():
    # leading shapes that broadcast on different axes, far past one chunk
    import tracemalloc

    rng = np.random.default_rng(5)
    a = _random_jet(rng, 4, 4, (16, 4, 1, 5))
    b = _random_jet(rng, 4, 4, (1, 4, 4, 5))
    tracemalloc.start()
    try:
        product = a * b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product.shape == (16, 4, 4, 5)
    assert product.coeffs.tobytes() == _per_element(lambda x, y: x * y, a, b).tobytes()
    assert peak <= 1.5 * product.coeffs.nbytes, (peak, product.coeffs.nbytes)


@pytest.mark.parametrize("nvars, order, lead", [(4, 4, 4), (2, 2, 2), (6, 3, 2)])
def test_cached_offsets_give_the_fresh_offsets_products_bitwise(nvars, order, lead):
    # a space of its own starts with an empty cache; row counts around the
    # chunk size grow it and then read a prefix, with operands broadcast on
    # either side or not at all
    sp = _JetSpace(nvars, order, lead)
    terms = len(sp.mul_table()[0])
    step = max(1, jets_module._CHUNK_TERMS // terms)
    rng = np.random.default_rng(11)
    most = 0
    for rows in (1, step - 1, step, step + 1, 3 * step + 5, 2):
        for a_shape, b_shape in (((rows,), (rows,)), ((rows, 1), (1,)), ((1,), (rows, 1))):
            a = rng.uniform(-1.0, 1.0, a_shape + (sp.size,))
            b = rng.uniform(-1.0, 1.0, b_shape + (sp.size,))
            assert sp.mul(a, b).tobytes() == fresh_offsets_mul(sp, a, b).tobytes(), (rows, a_shape)
        # the offsets of the most rows used so far, never more than a chunk's
        most = max(most, rows)
        assert len(sp._offsets) == min(most, step) * terms <= step * terms


# -- the space that keeps its trailing variables first-order ------------------

LINEAR_CASES = [(m, d, k) for m, d in ((1, 4), (3, 4), (4, 5)) for k in (2, 4)]


def _split_pair(rng, m, d, k, shape, base=None):
    """A random jet of the full (m + d)-variable space and the same jet in
    the space first-order past ``m``, with the positions of the kept
    entries in the full space."""
    full, lin = _space(m + d, k), _space(m + d, k, lead=m)
    keep = np.array([full.position[mi] for mi in lin.indices])
    coeffs = rng.uniform(-1.0, 1.0, shape + (full.size,))
    coeffs[..., 0] = rng.uniform(0.5, 1.5, shape) if base is None else base
    return Jet(full, coeffs), Jet(lin, coeffs[..., keep].copy()), keep


def _kept(full_result, lin_result, keep):
    assert lin_result.space.lead < lin_result.nvars
    assert lin_result.coeffs.tobytes() == full_result.coeffs[..., keep].tobytes()


@pytest.mark.parametrize("m, d, k", LINEAR_CASES)
def test_first_order_space_keeps_the_graded_subsequence(m, d, k):
    lin = _space(m + d, k, lead=m)
    assert lin.size == n_entries(m, k) + d * n_entries(m, k - 1)
    assert lin.indices == [mi for mi in _space(m + d, k).indices if sum(mi[m:]) <= 1]
    assert _space(m + d, k, lead=m) is lin and _space(m + d, k, lead=m + d) is _space(m + d, k)
    rng = np.random.default_rng(m + 10 * d + 100 * k)
    a_full, a_lin, keep = _split_pair(rng, m, d, k, (2,))
    for low in range(k + 1):  # truncation stays a prefix slice of the same space
        _kept(a_full.truncate(low), a_lin.truncate(low), keep[:_space(m + d, low, lead=m).size])


@pytest.mark.parametrize("m, d, k", LINEAR_CASES)
def test_first_order_products_are_the_full_space_entries_bitwise(m, d, k):
    rng = np.random.default_rng(7 * m + d + k)
    # the last batch runs in several kernel passes of _CHUNK_TERMS terms
    rows = 2 * jets_module._CHUNK_TERMS // len(_space(m + d, k, lead=m).mul_table()[0]) + 1
    for shape_a, shape_b in (((), ()), ((3, 1, 2), (4, 1)), ((2,), (5, 2)), ((rows, 2), (2,))):
        a_full, a_lin, keep = _split_pair(rng, m, d, k, shape_a)
        b_full, b_lin, _ = _split_pair(rng, m, d, k, shape_b)
        _kept(a_full * b_full, a_lin * b_lin, keep)
        _kept(a_full - b_full, a_lin - b_lin, keep)


@pytest.mark.parametrize("m, d, k", LINEAR_CASES)
def test_first_order_series_and_inverse_are_the_full_space_entries_bitwise(m, d, k):
    rng = np.random.default_rng(3 * m + 5 * d + k)
    a_full, a_lin, keep = _split_pair(rng, m, d, k, (3,))
    for name, fn in SERIES.items():
        _kept(fn(a_full), fn(a_lin), keep)
    _kept(a_full.powi(0), a_lin.powi(0), keep)
    _kept(a_full.powi(-2), a_lin.powi(-2), keep)
    # a diagonally dominant (3, 3) matrix of jets per sample
    base = np.eye(3) * 4.0 + rng.uniform(-0.5, 0.5, (2, 3, 3))
    mat_full, mat_lin, _ = _split_pair(rng, m, d, k, (2, 3, 3), base=base)
    _kept(jet_matrix_inverse(mat_full), jet_matrix_inverse(mat_lin), keep)


@pytest.mark.parametrize("m, d, k", LINEAR_CASES)
def test_first_order_extract_is_the_full_space_extract_bitwise(m, d, k):
    rng = np.random.default_rng(11 * m + d + k)
    a_full, a_lin, _ = _split_pair(rng, m, d, k, (2, 3))
    assert extract(a_lin, m, k).coeffs.tobytes() == extract(a_full, m, k).coeffs.tobytes()
    for c in range(d):
        got = extract(a_lin, m, k - 1, extra=m + c)
        assert got.coeffs.tobytes() == extract(a_full, m, k - 1, extra=m + c).coeffs.tobytes()
    # embedding the parameter jets and adding the first-order variables
    u = seed_point(rng.uniform(-1.0, 1.0, (2, m)), k)
    lin = _space(m + d, k, lead=m)
    for i, x in enumerate(u):
        eps_full = Jet.variable(m + d, k, m + i % d, 0.0)
        eps_lin = lin.variable(m + i % d, 0.0)
        _kept(embed(x, _space(m + d, k)) + eps_full, embed(x, lin) + eps_lin,
              [_space(m + d, k).position[mi] for mi in lin.indices])


def test_first_order_and_full_jets_never_mix():
    rng = np.random.default_rng(0)
    a_full, a_lin, _ = _split_pair(rng, 3, 4, 4, (2,))
    for op in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: y - x):
        with pytest.raises(ValueError):
            op(a_full, a_lin)
        with pytest.raises(ValueError):
            op(a_full.truncate(2), a_lin)  # a lower order does not make them one space
    with pytest.raises(ValueError):
        stack([a_full, a_lin])
    with pytest.raises(ValueError):
        stack([a_lin.truncate(3), a_full])


def test_first_order_space_refuses_what_it_does_not_hold():
    rng = np.random.default_rng(1)
    _, a_lin, _ = _split_pair(rng, 3, 4, 4, ())
    assert a_lin.partial((1, 0, 0, 0, 1, 0, 0)) == a_lin.coeffs[
        a_lin.space.position[(1, 0, 0, 0, 1, 0, 0)]]
    for alpha in ((0, 0, 0, 2, 0, 0, 0), (1, 0, 0, 1, 1, 0, 0)):
        with pytest.raises(ValueError):
            a_lin.partial(alpha)  # dropped: quadratic in the trailing variables
    assert a_lin.derivative(2).space is _space(7, 3, lead=3)
    for var in range(3, 7):
        with pytest.raises(ValueError):
            a_lin.derivative(var)
