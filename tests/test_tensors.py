import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arplr import (
    DiagonalTensor,
    NormedSpace,
    RegularizedModel,
    SymmetricTensor,
    TaylorModel,
    diagonal_tensor,
)
from arplr.geometry import _lr
from arplr.inner import _add_ray_share, _scan_slopes
from arplr.tensors import TensorError
from helpers import dense_array, full_ray_coefficients, ray_functions, symmetrize


def _random_symmetric(order, dim, rng):
    return SymmetricTensor(order, dim, symmetrize(rng.standard_normal((dim,) * order)))


def _random_taylor(p, dim, rng):
    tensors = tuple(_random_symmetric(l, dim, rng) for l in range(1, p + 1))
    rng.standard_normal()  # an unused draw: the draws after it keep their values
    return TaylorModel(tensors)


def test_apply_linear_form_is_dot():
    g = np.array([1.0, -2.0, 3.0])
    t = SymmetricTensor(1, 3, g)
    v = np.array([0.5, 0.25, -1.0])
    assert t.apply([v]) == pytest.approx(float(np.dot(g, v)), rel=1e-15)


def test_apply_identity_matrix_on_ones():
    n = 5
    t = SymmetricTensor(2, n, np.eye(n))
    ones = np.ones(n)
    assert t.apply([ones, ones]) == pytest.approx(float(n), rel=1e-15)


def test_apply_symmetric_under_permutation():
    rng = np.random.default_rng(0)
    t = _random_symmetric(3, 4, rng)
    vs = [rng.standard_normal(4) for _ in range(3)]
    base = t.apply(vs)
    for perm in itertools.permutations(range(3)):
        assert t.apply([vs[i] for i in perm]) == pytest.approx(base, rel=1e-12)


def test_entries_invariant_under_permutation():
    rng = np.random.default_rng(1)
    t = _random_symmetric(3, 3, rng)
    for perm in itertools.permutations(range(3)):
        assert np.allclose(np.transpose(t.entries, perm), t.entries, atol=1e-15)


def test_contract_no_vectors_is_identity():
    rng = np.random.default_rng(2)
    t = _random_symmetric(2, 4, rng)
    assert np.array_equal(t.contract([]), t.entries)


def test_contract_full_matches_apply():
    rng = np.random.default_rng(3)
    t = _random_symmetric(3, 3, rng)
    v = rng.standard_normal(3)
    scalar = t.contract([v, v, v])
    assert np.ndim(scalar) == 0
    assert float(scalar) == pytest.approx(t.apply([v, v, v]), rel=1e-12)


def test_contract_matrix_vector_oracle():
    rng = np.random.default_rng(4)
    a = symmetrize(rng.standard_normal((5, 5)))
    t = SymmetricTensor(2, 5, a)
    v = rng.standard_normal(5)
    assert np.allclose(t.contract([v]), a @ v, rtol=1e-13)


def test_arity_and_range_errors():
    t = SymmetricTensor(2, 3, np.eye(3))
    with pytest.raises(TensorError):
        t.apply([np.ones(3)])
    with pytest.raises(TensorError):
        t.apply([np.ones(3)] * 3)
    with pytest.raises(TensorError):
        t.apply([np.ones(2), np.ones(2)])


def test_diagonal_tensor():
    t = diagonal_tensor(3, [1.0, 2.0])
    assert dense_array(t)[0, 0, 0] == 1.0 and dense_array(t)[1, 1, 1] == 2.0
    assert dense_array(t)[0, 1, 0] == 0.0


def test_diagonal_tensor_validation():
    with pytest.raises(TensorError):
        DiagonalTensor(1, 2, [1.0, 2.0])
    with pytest.raises(TensorError):
        DiagonalTensor(2, 3, [1.0, 2.0])
    t = diagonal_tensor(2, [1.0, 2.0])
    with pytest.raises(TensorError):
        t.apply([np.ones(2)])
    with pytest.raises(TensorError):
        t.apply([np.ones(2)] * 3)
    with pytest.raises(TensorError):
        t.apply([np.ones(3), np.ones(3)])
    # an order-1 diagonal is just the vector
    assert isinstance(diagonal_tensor(1, [1.0, 2.0]), SymmetricTensor)
    # an off-diagonal band has dim - 1 entries and order 2
    for off in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], []):
        with pytest.raises(TensorError):
            diagonal_tensor(2, [1.0, 2.0, 3.0], off)
    with pytest.raises(TensorError):
        diagonal_tensor(3, [1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(TensorError):
        DiagonalTensor(3, 3, np.ones(5))
    with pytest.raises(TensorError):
        DiagonalTensor(2, 3, np.ones(4))


def _row_loop(dense, v):
    # each row of dense times v, summed left to right in Python floats
    out = []
    for row in dense.tolist():
        acc = row[0] * v[0]
        for a, b in zip(row[1:], v[1:]):
            acc += a * b
        out.append(acc)
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3, 31, 255])
def test_banded_tensor_contracts_like_a_row_loop(n):
    rng = np.random.default_rng(n)
    main, off = 1e3 * rng.standard_normal(n), rng.standard_normal(n - 1)
    v, w = rng.standard_normal(n), rng.standard_normal(n)
    t = diagonal_tensor(2, main, off)
    dense = dense_array(t)
    # symmetric tridiagonal, with the stored floats in place
    assert np.array_equal(dense, dense.T) and not np.triu(dense, 2).any()
    assert np.array_equal(np.diag(dense), main) and np.array_equal(np.diag(dense, 1), off)
    assert t.contract([]) is t.entries
    hv = t.contract([v])
    assert hv.tobytes() == _row_loop(dense, v.tolist()).tobytes()
    full = t.contract([v, w])
    assert full == np.dot(hv, w) and t.apply([v, w]) == full
    # entries hold every stored float, so the constructor rebuilds the band
    again = type(t)(t.order, t.dim, t.entries)
    assert np.array_equal(dense_array(again), dense)
    assert again.contract([v]).tobytes() == hv.tobytes()


def _ray_coeffs(m, s0, d):
    # the inner loop's coefficients of the Taylor part along s0 - t d
    coeffs = [m.taylor.value(s0), -float(np.dot(m.taylor.gradient(s0), d))] + [0.0] * (m.p - 1)
    for t in m.taylor.tensors[1:]:
        _add_ray_share(coeffs, t, t.contract([d] * (t.order - 1)), s0, d)
    return coeffs


# (seed, decimal exponent) of a standard-normal vector scaled by 10^exponent
_scaled = st.tuples(st.integers(min_value=0, max_value=2**32 - 1), st.integers(-6, 6))


def _draw(n, scaled):
    seed, exponent = scaled
    return np.random.default_rng(seed).standard_normal(n) * 10.0 ** exponent


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    order=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=100),
    diag=_scaled,
    grad=_scaled,
    a=_scaled,
    b=_scaled,
    c=_scaled,
)
def test_diagonal_tensor_contracts_like_dense_bit_for_bit(order, n, diag, grad, a, b, c):
    t = diagonal_tensor(order, _draw(n, diag))
    dense = SymmetricTensor(order, n, dense_array(t))
    vs = [_draw(n, a), _draw(n, b), _draw(n, c)]
    assert t.apply(vs[:order]) == dense.apply(vs[:order])
    for times in range(order + 1):
        out, ref = t.contract([vs[0]] * times), dense.contract([vs[0]] * times)
        left = order - times  # the diagonal remainder, expanded when of order 2 up
        assert np.array_equal(dense_array(diagonal_tensor(left, out)) if left >= 2 else out, ref)
    # the p = 2 Hessian products of the inner solver
    hess = diagonal_tensor(2, t.entries)
    assert np.array_equal(hess.contract([vs[1]]), np.dot(dense_array(hess), vs[1]))
    # the ray coefficients of the order-p model with these tensors
    g = SymmetricTensor(1, n, _draw(n, grad))
    higher = [diagonal_tensor(l, _draw(n, diag) / l) for l in range(2, order + 1)]
    space = NormedSpace(n, 2.0)
    models = [
        RegularizedModel(TaylorModel((g, *ts)), 1.0, 1.0, space)
        for ts in (higher, [SymmetricTensor(x.order, n, dense_array(x)) for x in higher])
    ]
    s0, d = vs[1], vs[2]
    assert _ray_coeffs(models[0], s0, d) == _ray_coeffs(models[1], s0, d)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    order=st.sampled_from([2, 3, 4]),
    diagonal=st.booleans(),
    n=st.integers(min_value=1, max_value=6),
    entries=_scaled,
    a=_scaled,
    b=_scaled,
)
def test_ray_share_matches_full_contractions(order, diagonal, n, entries, a, b):
    if diagonal:
        t = diagonal_tensor(order, _draw(n, entries))
    else:
        seed, exponent = entries
        rng = np.random.default_rng(seed)
        arr = symmetrize(rng.standard_normal((n,) * order)) * 10.0 ** exponent
        t = SymmetricTensor(order, n, arr)
    s0, d = _draw(n, a), _draw(n, b)
    coeffs = [0.0] * (order + 1)
    _add_ray_share(coeffs, t, t.contract([d] * (order - 1)), s0, d)
    assert coeffs == full_ray_coefficients([t], s0, d)


def test_taylor_value_at_zero_is_zero():
    # the model of the change f(x + s) - f(x)
    rng = np.random.default_rng(5)
    tm = _random_taylor(3, 4, rng)
    assert tm.value(np.zeros(4)) == 0.0


def test_taylor_linear_model():
    g = np.array([1.0, 2.0])
    tm = TaylorModel((SymmetricTensor(1, 2, g),))
    s = np.array([0.5, -1.0])
    assert tm.value(s) == pytest.approx(np.dot(g, s), rel=1e-15)


def test_taylor_reproduces_quadratic_exactly():
    rng = np.random.default_rng(6)
    a = symmetrize(rng.standard_normal((4, 4)))
    b = rng.standard_normal(4)
    c = 0.7

    def f(z):
        return 0.5 * z @ a @ z + b @ z + c

    x = rng.standard_normal(4)
    grad = a @ x + b
    tm = TaylorModel((SymmetricTensor(1, 4, grad), SymmetricTensor(2, 4, a)))
    for _ in range(10):
        s = rng.standard_normal(4)
        change = f(x + s) - f(x)
        assert tm.value(s) == pytest.approx(change, abs=1e-12 * max(1, abs(f(x + s))))


def test_taylor_gradient_at_zero_is_base_gradient():
    rng = np.random.default_rng(7)
    tm = _random_taylor(3, 3, rng)
    assert np.allclose(tm.gradient(np.zeros(3)), tm.tensors[0].entries, atol=1e-15)


def test_taylor_gradient_quadratic_case():
    rng = np.random.default_rng(8)
    a = symmetrize(rng.standard_normal((3, 3)))
    g = rng.standard_normal(3)
    tm = TaylorModel((SymmetricTensor(1, 3, g), SymmetricTensor(2, 3, a)))
    s = rng.standard_normal(3)
    assert np.allclose(tm.gradient(s), g + a @ s, rtol=1e-13)


def test_taylor_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    tm = _random_taylor(3, 4, rng)
    s = rng.standard_normal(4)
    grad = tm.gradient(s)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd = (tm.value(s + e) - tm.value(s - e)) / (2.0 * h)
        assert fd == pytest.approx(grad[i], rel=1e-6, abs=1e-8)


def _model(p, beta, sigma, dim, r, rng):
    return RegularizedModel(_random_taylor(p, dim, rng), sigma, beta, NormedSpace(dim, r))


def test_model_value_at_zero_and_sigma_zero():
    rng = np.random.default_rng(10)
    m = _model(2, 1.0, 3.0, 4, 2.0, rng)
    assert m.value(np.zeros(4)) == 0.0
    m0 = RegularizedModel(m.taylor, 0.0, 1.0, m.space)
    s = rng.standard_normal(4)
    assert m0.value(s) == pytest.approx(m.taylor.value(s), rel=1e-14)


def test_model_value_p1_beta1_arithmetic():
    # sigma = 2 and Gamma(3) = 2 make the regularizer exactly |s|^2
    g = np.array([1.0, -1.0])
    tm = TaylorModel((SymmetricTensor(1, 2, g),))
    sp = NormedSpace(2, 2.0)
    m = RegularizedModel(tm, 2.0, 1.0, sp)
    s = np.array([0.3, 0.4])
    assert m.value(s) == pytest.approx(np.dot(g, s) + sp.norm(s) ** 2, rel=1e-14)
    # a finite s whose regularizer passes the largest double
    assert m.value(np.array([1e200, 1e200])) == math.inf


def test_model_gradient_at_zero_and_sigma_zero():
    rng = np.random.default_rng(11)
    m = _model(2, 0.5, 1.5, 3, 2.0, rng)
    assert np.allclose(m.gradient(np.zeros(3)), m.taylor.tensors[0].entries, atol=1e-15)
    m0 = RegularizedModel(m.taylor, 0.0, 0.5, m.space)
    s = rng.standard_normal(3)
    assert np.allclose(m0.gradient(s), m.taylor.gradient(s), rtol=1e-13)


@pytest.mark.parametrize("r,beta", [(2.0, 1.0), (1.5, 0.5), (3.0, 0.8)])
def test_model_gradient_matches_finite_differences(r, beta):
    rng = np.random.default_rng(12)
    m = _model(2, beta, 0.8, 4, r, rng)
    s = rng.uniform(0.4, 1.2, size=4) * rng.choice([-1.0, 1.0], size=4)
    grad = m.gradient(s)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd = (m.value(s + e) - m.value(s - e)) / (2.0 * h)
        assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-7)


def _ray(m, s0, d):
    # the arguments of the inner solver's restriction of m to t -> s0 - t d:
    # its Taylor coefficients (the constant m's Taylor value at s0), the ray,
    # r, e, the regularizer weights and the l^r pass over s0
    e = m.reg_exponent
    return (_ray_coeffs(m, s0, d), s0, d, m.space.r, e, m.sigma / math.gamma(e + 1.0),
            m.sigma / math.gamma(e), *_lr(s0, m.space.r))


def test_restrict_to_ray_linear_coefficients():
    g = np.array([2.0, 1.0])
    tm = TaylorModel((SymmetricTensor(1, 2, g),))
    sp = NormedSpace(2, 2.0)
    m = RegularizedModel(tm, 1.0, 1.0, sp)
    s0 = np.array([0.2, -0.4])
    d = np.array([1.0, 0.0])
    coeffs = _ray(m, s0, d)[0]
    assert coeffs[0] == pytest.approx(np.dot(g, s0), rel=1e-14)
    assert coeffs[1] == pytest.approx(-np.dot(g, d), rel=1e-14)


def test_restrict_to_ray_quadratic_coefficient_via_polyfit():
    rng = np.random.default_rng(13)
    a = symmetrize(rng.standard_normal((3, 3)))
    g = rng.standard_normal(3)
    tm = TaylorModel((SymmetricTensor(1, 3, g), SymmetricTensor(2, 3, a)))
    sp = NormedSpace(3, 2.0)
    m = RegularizedModel(tm, 0.5, 1.0, sp)
    d = rng.standard_normal(3)
    d /= sp.norm(d)
    coeffs = _ray(m, np.zeros(3), d)[0]
    # oracle: sample the polynomial part (sigma = 0 model) and fit degree 2
    m_plain = RegularizedModel(tm, 0.0, 1.0, sp)
    ts = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    samples = [m_plain.value(-t * d) for t in ts]
    fitted = np.polynomial.polynomial.polyfit(ts, samples, 2)
    assert coeffs[2] == pytest.approx(fitted[2], rel=1e-10, abs=1e-12)
    assert coeffs[2] == pytest.approx(0.5 * d @ a @ d, rel=1e-12)
    # the p = 2 inner loop hands in its Hessian product H d as the lead
    shortcut = [tm.value(np.zeros(3)), -float(np.dot(g, d)), 0.0]
    _add_ray_share(shortcut, tm.tensors[1], a @ d, np.zeros(3), d)
    assert np.allclose(shortcut, coeffs, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "r,p,beta",
    [
        (1.5, 1, 0.5), (1.5, 2, 1.0), (1.5, 3, 0.3),
        (2.0, 1, 0.6), (2.0, 2, 1.0), (2.0, 3, 1.0),
        (3.0, 1, 1.0), (3.0, 2, 0.4), (3.0, 3, 0.7),
    ],
)
def test_restrict_to_ray_evaluation_consistency(r, p, beta):
    rng = np.random.default_rng(14)
    m = _model(p, beta, 1.3, 4, r, rng)
    s0 = rng.standard_normal(4)
    d = m.space.dual_direction(rng.standard_normal(4))
    ray = _ray(m, s0, d)
    ts = rng.uniform(0.0, 3.0, size=20)
    dcoeffs = [j * c for j, c in enumerate(ray[0][1:], 1)]
    reg_d = ray[6]
    ders = _scan_slopes(dcoeffs, s0, d, r, m.reg_exponent, reg_d, ts)
    slope, val, _ = ray_functions(*ray)
    for t, dv in zip(ts, ders):
        direct = m.value(s0 - t * d)
        assert abs(val(t) - direct) <= 1e-10 * max(1.0, abs(direct))
        assert dv == pytest.approx(slope(t), rel=1e-12, abs=1e-12)


def test_ray_derivatives_match_finite_differences():
    rng = np.random.default_rng(16)
    for r in (1.5, 2.0, 3.0):
        for p in (1, 2, 3):
            m = _model(p, 0.8, 1.1, 4, r, rng)
            s0 = rng.standard_normal(4)
            d = m.space.dual_direction(rng.standard_normal(4))
            slope = ray_functions(*_ray(m, s0, d))[0]
            h = 1e-6
            for t in (0.3, 1.0, 2.2):
                fd = (m.value(s0 - (t + h) * d) - m.value(s0 - (t - h) * d)) / (2.0 * h)
                assert slope(t) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_model_coercivity_witness():
    rng = np.random.default_rng(17)
    for r in (1.5, 2.0, 3.0):
        m = _model(2, 1.0, 0.7, 4, r, rng)
        d = rng.standard_normal(4)
        d /= m.space.norm(d)
        m0 = m.value(np.zeros(4))
        for t in (1e3, 1e4):
            assert m.value(t * d) > m0


def test_model_order_validation():
    rng = np.random.default_rng(18)
    tm = _random_taylor(2, 3, rng)
    assert RegularizedModel(tm, 1.0, 1.0, NormedSpace(3, 2.0)).p == tm.degree == 2
    with pytest.raises(TensorError):
        RegularizedModel(tm, 1.0, 1.5, NormedSpace(3, 2.0))
    with pytest.raises(TensorError, match="space dimension"):
        RegularizedModel(tm, 1.0, 1.0, NormedSpace(4, 2.0))


def test_taylor_model_validation():
    g, h = SymmetricTensor(1, 3, np.ones(3)), SymmetricTensor(2, 3, np.eye(3))
    with pytest.raises(TensorError, match="order-1 tensor"):
        TaylorModel(())
    with pytest.raises(TensorError, match="position 1 has order 2"):
        TaylorModel((h, g))
    assert TaylorModel((g, h)).dim == 3
    with pytest.raises(TensorError, match="dimension"):
        TaylorModel((SymmetricTensor(1, 2, np.ones(2)), h))
