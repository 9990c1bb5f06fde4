import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arplr import GeometryError, NormedSpace, smoothness_modulus_estimate
from arplr.geometry import _lr, _lr_rows
from helpers import smoothness_order, two_step_lr


def test_norm_examples():
    assert NormedSpace(2, 2.0).norm([3.0, 4.0]) == pytest.approx(5.0, abs=1e-14)
    assert NormedSpace(3, 2.7).norm([0.0, 0.0, 0.0]) == 0.0
    assert NormedSpace(2, 3.0).norm([1.0, 1.0]) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)


def test_norm_zero_iff_zero():
    sp = NormedSpace(3, 1.5)
    assert sp.norm([0.0, 1e-300, 0.0]) > 0.0


def test_dual_norm_examples():
    assert NormedSpace(2, 2.0).dual_norm([3.0, 4.0]) == pytest.approx(5.0, abs=1e-14)
    assert NormedSpace(2, 3.0).dual_norm([1.0, 0.0]) == pytest.approx(1.0, abs=1e-14)
    # conjugate of r=4 is 4/3: (1 + 1)^(3/4)
    assert NormedSpace(2, 4.0).dual_norm([1.0, 1.0]) == pytest.approx(2.0 ** 0.75, rel=1e-14)


def test_dual_pairing_inequality():
    rng = np.random.default_rng(0)
    for r in (1.3, 1.5, 2.0, 3.0, 4.0):
        sp = NormedSpace(5, r)
        for _ in range(50):
            g = rng.standard_normal(5)
            v = rng.standard_normal(5)
            assert abs(np.dot(g, v)) <= sp.dual_norm(g) * sp.norm(v) * (1 + 1e-12)


def test_dimension_mismatch_rejected():
    sp = NormedSpace(3, 2.0)
    with pytest.raises(GeometryError):
        sp.norm([1.0, 2.0])
    with pytest.raises(GeometryError):
        sp.dual_norm([1.0, 2.0, 3.0, 4.0])


def test_nonfinite_rejected():
    sp = NormedSpace(2, 2.0)
    with pytest.raises(GeometryError):
        sp.norm([np.nan, 0.0])
    with pytest.raises(GeometryError):
        sp.duality_map([np.inf, 0.0], 2.0)
    for bad in (np.nan, np.inf, -np.inf):
        for method in (sp.dual_norm, sp.dual_direction):
            with pytest.raises(GeometryError):
                method([1.0, bad])


def test_space_construction_rejects_bad_exponents():
    for r in (1.0, 0.5, math.inf, -2.0):
        with pytest.raises(GeometryError):
            NormedSpace(3, r)
    with pytest.raises(GeometryError):
        NormedSpace(0, 2.0)


def test_conjugate_exponent_relation():
    for r in (1.2, 1.5, 2.0, 3.0, 7.5):
        sp = NormedSpace(2, r)
        assert 1.0 / sp.r + 1.0 / sp.r_dual == pytest.approx(1.0, abs=1e-14)
        assert smoothness_order(sp) == min(r, 2.0)


def test_duality_map_hilbert_is_identity():
    sp = NormedSpace(2, 2.0)
    x = np.array([1.0, -2.0])
    assert np.allclose(sp.duality_map(x, 2.0), x, atol=1e-14)


def test_duality_map_at_zero():
    for r in (1.5, 2.0, 3.0):
        sp = NormedSpace(3, r)
        for p in (1.5, 2.0, 3.5):
            assert np.all(sp.duality_map(np.zeros(3), p) == 0.0)


def test_duality_map_past_the_largest_double_is_inf():
    # |x|^(p-1) = (1e200 sqrt(2))^2 passes the largest double
    assert np.isposinf(NormedSpace(2, 2.0).duality_map([1e200, 1e200], 3.0)).all()


def test_duality_map_rejects_small_exponent():
    sp = NormedSpace(2, 2.0)
    with pytest.raises(GeometryError):
        sp.duality_map([1.0, 1.0], 1.0)


def test_duality_map_defining_identities_spot():
    sp = NormedSpace(2, 3.0)
    x = np.array([1.0, 1.0])
    J = sp.duality_map(x, 2.5)
    assert np.dot(J, x) == pytest.approx(sp.norm(x) ** 2.5, rel=1e-12)
    assert sp.dual_norm(J) == pytest.approx(sp.norm(x) ** 1.5, rel=1e-12)


def test_duality_map_defining_identities_random():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        r = float(rng.choice([1.5, 2.0, 3.0, 4.0]))
        p = float(rng.choice([2.0, 2.5, 3.0, 3.5]))
        sp = NormedSpace(n, r)
        x = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
        J = sp.duality_map(x, p)
        nx = sp.norm(x)
        assert abs(np.dot(J, x) - nx ** p) <= 1e-10 * max(1.0, nx ** p)
        assert abs(sp.dual_norm(J) - nx ** (p - 1.0)) <= 1e-10 * max(1.0, nx ** (p - 1.0))


def test_duality_map_matches_finite_differences():
    # h(x) = |x|^p / p; coordinates kept away from 0 where the power norm
    # loses smoothness for r < 2
    rng = np.random.default_rng(2)
    for r in (1.5, 2.0, 3.0):
        sp = NormedSpace(4, r)
        for p in (2.0, 2.5):
            x = rng.uniform(0.5, 1.5, size=4) * rng.choice([-1.0, 1.0], size=4)
            J = sp.duality_map(x, p)
            h = 1e-6
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd = (sp.norm(x + e) ** p - sp.norm(x - e) ** p) / (2.0 * h * p)
                assert fd == pytest.approx(J[i], rel=1e-5)


def test_dual_direction_examples():
    sp = NormedSpace(2, 2.0)
    assert np.allclose(sp.dual_direction([3.0, 4.0]), [0.6, 0.8], atol=1e-14)
    assert np.allclose(sp.dual_direction([0.0, 5.0]), [0.0, 1.0], atol=1e-14)


def test_dual_direction_defining_identities():
    rng = np.random.default_rng(3)
    for r in (1.5, 2.0, 3.0, 4.0):
        sp = NormedSpace(6, r)
        for _ in range(60):
            g = rng.standard_normal(6)
            d = sp.dual_direction(g)
            assert abs(sp.norm(d) - 1.0) <= 1e-12
            gn = sp.dual_norm(g)
            assert abs(np.dot(g, d) - gn) <= 1e-10 * gn


def test_dual_direction_r3_identity():
    sp = NormedSpace(2, 3.0)
    g = np.array([1.0, 1.0])
    d = sp.dual_direction(g)
    assert sp.norm(d) == pytest.approx(1.0, abs=1e-12)
    assert np.dot(g, d) == pytest.approx(sp.dual_norm(g), rel=1e-12)


def test_dual_direction_zero_raises():
    with pytest.raises(GeometryError):
        NormedSpace(3, 2.0).dual_direction(np.zeros(3))


def test_modulus_zero_at_zero():
    assert smoothness_modulus_estimate(NormedSpace(4, 2.5), 0.0, 100) == 0.0


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -0.5])
def test_modulus_rejects_a_nonfinite_or_negative_argument(t):
    with pytest.raises(GeometryError):
        smoothness_modulus_estimate(NormedSpace(4, 2.5), t, 100)


@pytest.mark.parametrize("samples", [math.nan, math.inf, -math.inf, 0, 0.5])
def test_modulus_rejects_a_nonfinite_or_too_small_sample_count(samples):
    with pytest.raises(GeometryError):
        smoothness_modulus_estimate(NormedSpace(4, 2.5), 0.3, samples)


@pytest.mark.parametrize("r, expected", [(1.5, 0.09354246493054275), (3.0, 0.08128221215124576)])
def test_modulus_estimate_keeps_its_bits(r, expected):
    # the row-wise l^r passes over the samples, pinned to their exact floats
    assert smoothness_modulus_estimate(NormedSpace(5, r), 0.3, 2000, seed=3) == expected


def test_modulus_hilbert_bounds():
    sp = NormedSpace(8, 2.0)
    est = smoothness_modulus_estimate(sp, 1.0, 20_000, seed=4)
    assert est <= math.sqrt(2.0) - 1.0 + 1e-12
    est_half = smoothness_modulus_estimate(sp, 0.5, 20_000, seed=5)
    assert est_half <= 0.5 ** 2 / 2.0 + 1e-12


def test_modulus_power_envelope():
    # classical envelopes: t^r / r for r <= 2, (r-1) t^2 / 2 for r >= 2
    for r in (1.5, 2.0, 3.0):
        sp = NormedSpace(6, r)
        q = smoothness_order(sp)
        kappa = 1.0 / r if r <= 2.0 else (r - 1.0) / 2.0
        for t in (0.1, 0.25, 0.5, 1.0):
            est = smoothness_modulus_estimate(sp, t, 5_000, seed=6)
            assert est <= kappa * t ** q + 1e-10


def test_duality_map_difference_ratio_stays_bounded():
    # ratio |J(x) - J(y)|_* / (|x-y|^(q'-1) + |x-y|^(l-1)) with q' = min(q, l)
    # over shrinking separations: the sampled maximum must not grow
    rng = np.random.default_rng(7)
    for r in (1.5, 2.0, 3.0):
        sp = NormedSpace(4, r)
        for ell in (1.5, 2.5, 3.5):
            q_eff = min(smoothness_order(sp), ell)
            level_max = []
            for exponent in range(1, 9):
                delta = 10.0 ** (-exponent)
                worst = 0.0
                for _ in range(40):
                    x = rng.uniform(-1.0, 1.0, size=4)
                    u = rng.standard_normal(4)
                    y = x + delta * u / sp.norm(u)
                    sep = sp.norm(x - y)
                    num = sp.dual_norm(sp.duality_map(x, ell) - sp.duality_map(y, ell))
                    den = sep ** (q_eff - 1.0) + sep ** (ell - 1.0)
                    worst = max(worst, num / den)
                level_max.append(worst)
            coarse = max(level_max[:4])
            assert level_max[-1] <= 4.0 * coarse
            assert level_max[-2] <= 4.0 * coarse


# -- magnitude-robust identities ---------------------------------------------

_exponents = st.floats(min_value=1.01, max_value=8.0)
_magnitudes = st.integers(min_value=-150, max_value=150)
_shapes = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False), min_size=1, max_size=8
).filter(lambda u: max(map(abs, u)) > 0.0)
_bounded = settings(max_examples=150, derandomize=True, deadline=None)


def _scaled(u, k):
    # a vector with largest entry 10^k in magnitude: u is divided by its
    # peak first, since 10^k u can underflow to 0 for a tiny u
    u = np.asarray(u)
    return u / np.abs(u).max() * 10.0 ** k


@_bounded
@given(r=_exponents, p=st.floats(min_value=1.01, max_value=2.0), k=_magnitudes, u=_shapes)
@example(r=4.0, p=2.0, k=100, u=[1.0, 1.0, 1.0])
def test_duality_map_identities_at_any_magnitude(r, p, k, u):
    x = _scaled(u, k)
    sp = NormedSpace(len(x), r)
    J = sp.duality_map(x, p)
    nx = sp.norm(x)
    assert np.dot(J, x) == pytest.approx(nx ** p, rel=1e-10)
    assert sp.dual_norm(J) == pytest.approx(nx ** (p - 1.0), rel=1e-10)


@_bounded
@given(r=_exponents, k=_magnitudes, u=_shapes)
@example(r=1.5, k=-120, u=[1.0, 1.0, 1.0])
@example(r=2.0, k=-87, u=[3.3700742418720415e-238])
def test_dual_direction_identities_at_any_magnitude(r, k, u):
    g = _scaled(u, k)
    sp = NormedSpace(len(g), r)
    d = sp.dual_direction(g)
    assert sp.norm(d) == pytest.approx(1.0, rel=1e-12)
    assert np.dot(g, d) == pytest.approx(sp.dual_norm(g), rel=1e-10)


@_bounded
@given(r=_exponents, k=_magnitudes, u=_shapes)
def test_norm_homogeneity_at_any_magnitude(r, k, u):
    sp = NormedSpace(len(u), r)
    x = _scaled(u, 0)
    c = 10.0 ** k
    assert sp.norm(c * x) == pytest.approx(c * sp.norm(x), rel=1e-12)
    assert sp.dual_norm(c * x) == pytest.approx(c * sp.dual_norm(x), rel=1e-12)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("j", [-1072, -1060, -1040, -1025, -1000, 0, 1000, 1021, 1022, 1023])
def test_norm_is_finite_down_to_subnormals_and_inf_past_the_largest_double(r, j):
    # v = 2^j u is exact, so |v|_r = 2^j |u|_r: rounded into the subnormals
    # below 2^-1022, inf where it passes the largest double; the vector and
    # the row path agree, and the duality vector is u's, with the bits of
    # its two-step form (zeros at inf)
    u = np.array([1.0, -0.5, 0.75, 0.0])
    nu, du = _lr(u, r)
    v = np.ldexp(u, j)
    ref = math.inf if math.frexp(nu)[1] + j > 1024 else math.ldexp(nu, j)
    rows_nrm = _lr_rows(np.array([v, u, np.zeros(4)]), r)
    nv, dv = _lr(v, r)
    for nrm in (NormedSpace(4, r).norm(v), nv, rows_nrm[0]):
        assert nrm == ref or math.isclose(nrm, ref, rel_tol=1e-12, abs_tol=1e-323)
    assert dv.tobytes() == two_step_lr(v, r)[1].tobytes()
    if math.isfinite(ref):
        np.testing.assert_allclose(dv, du, rtol=1e-12)
    else:
        assert not dv.any()
    assert rows_nrm[1] == nu and rows_nrm[2] == 0.0


@st.composite
def _wide_vectors(draw):
    # entries 2^-1074 .. 2^1024 in magnitude below a top exponent, either
    # clustered or spread over the whole range, with signed zeros and
    # entries that scaling by the top's power of two makes subnormal
    top = draw(st.integers(min_value=-1074, max_value=1023))
    spread = draw(st.sampled_from([0, 4, 60, 2100]))
    entries = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.integers(min_value=0, max_value=7))
        if kind == 0:
            entries.append(draw(st.sampled_from([0.0, -0.0])))
            continue
        below = 1022 + draw(st.integers(min_value=0, max_value=52)) if kind == 1 else \
            draw(st.integers(min_value=0, max_value=spread))
        m = 1.0 + draw(st.integers(min_value=0, max_value=2 ** 52 - 1)) * 2.0 ** -52
        x = math.ldexp(m, max(-1074, top - below))
        entries.append(math.copysign(x, draw(st.sampled_from([1.0, -1.0]))))
    return np.array(entries)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(r=st.sampled_from([1.5, 2.0, 3.0]), a=_wide_vectors())
@example(r=1.5, a=np.array([1.5 * 2.0 ** 1023, -1.5 * 2.0 ** 1023, 0.0]))
@example(r=3.0, a=np.array([5e-324, -0.0, 0.0, -5e-324]))
@example(r=2.0, a=np.array([-0.0, 0.0]))
def test_one_lr_pass_gives_the_bits_of_the_two_step_duality_vector(r, a):
    nrm, v = _lr(a, r)
    ref_nrm, ref_v = two_step_lr(a, r)
    assert np.float64(nrm).tobytes() == np.float64(ref_nrm).tobytes()
    assert v.tobytes() == ref_v.tobytes()
    if nrm == math.inf:
        assert not v.any()


def _window_edge_vectors():
    # n entries of size x whose sum of squares is on an edge of the
    # unscaled r = 2 window (2^-900, 2^1000) or, with x moved by up to two
    # ulps, just inside or outside it; each also with two entries whose
    # squares underflow
    out = []
    for e in (-900, 1000):
        for n in (1, 3, 4, 50):
            for step in range(-2, 3):
                x = math.ldexp(1.0 + step * 2.0 ** -52, e // 2) / math.sqrt(n)
                v = x * (-1.0) ** np.arange(n)
                out += [v, np.append(v, [1e-300, -5e-324])]
    return out


def _with_window_edges(test):
    for v in _window_edge_vectors():
        test = example(a=v)(test)
    return test


@settings(max_examples=400, derandomize=True, deadline=None)
@given(a=_wide_vectors())
@_with_window_edges
# sums of squares below 2^-900 and above 2^1000, a subnormal peak and a norm
# past the largest double, each with signed zeros: the scaled pass forms
# the duality vector as at every r, |a| / |a|_2 signed by a
@example(a=np.array([3e-140, -0.0, -1e-141, 0.0]))
@example(a=np.array([-2e151, 0.0, 7e150, -0.0]))
@example(a=np.array([5e-324, -0.0, -1e-320]))
@example(a=np.array([1.5 * 2.0 ** 1023, -0.0, -1.5 * 2.0 ** 1023]))
def test_r2_pass_has_the_two_step_bits_inside_and_outside_its_window(a):
    # the unscaled sum of squares inside the window and the scaled one
    # outside it give the same bits, and neither warns at any magnitude
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nrm, v = _lr(a, 2.0)
        ref_nrm, ref_v = two_step_lr(a, 2.0)
    assert np.float64(nrm).tobytes() == np.float64(ref_nrm).tobytes()
    assert v.tobytes() == ref_v.tobytes()


def test_vdot_is_silent_on_overflow():
    # _lr tests its r = 2 window on vdot's sum of squares, which may
    # overflow: a NumPy release that makes vdot warn fails here first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.vdot(np.array([1e200, 1e200]), np.array([1e200, 1e200])) == math.inf


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_lr_only_reads_its_argument(r):
    # a vector, normal rows with a zero row, and rows of which one has a
    # subnormal peak (lifted in a copy) and one a norm past the largest double
    u = np.array([1.0, -0.5, 0.75, -0.0])
    for a in (u, np.array([u, -3.0 * u, np.zeros(4)]),
              np.array([u, np.ldexp(u, -1060), np.ldexp(u, 1023)])):
        before = a.copy()
        with np.errstate(over="ignore"):
            _lr(a, r) if a.ndim == 1 else _lr_rows(a, r)
        assert a.tobytes() == before.tobytes()


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_rows_past_the_largest_double_are_inf_without_a_warning(r):
    # as for a vector, whose pass is silent: the overflowing row reads inf,
    # and every finite row keeps its bits
    a = np.array([[1.5e308] * 4, [1.0, 2.0, 3.0, 4.0], [0.0] * 4, [-4.0, 1e-300, 0.5, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nrm = _lr_rows(a, r)
        assert _lr(a[0], r)[0] == math.inf
    assert nrm[0] == math.inf
    assert nrm[1:].tobytes() == _lr_rows(a[1:], r).tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(r=st.sampled_from([1.5, 2.0, 3.0]), rows=st.lists(_wide_vectors(), min_size=1, max_size=6))
def test_row_pass_is_the_vector_pass_up_to_one_ulp_of_the_norm(r, rows):
    # a row's root is a NumPy array power and a vector's a Python float
    # power, which may round differently, but at r = 2 both are correctly
    # rounded square roots (NumPy takes ``** 0.5`` as one), so the norms
    # are equal
    n = max(len(v) for v in rows)
    a = np.array([np.pad(v, (0, n - len(v))) for v in rows])
    with np.errstate(over="ignore"):
        nrm = _lr_rows(a, r)
    for got, row in zip(nrm, a):
        want = _lr(row, r)[0]
        if r == 2.0:
            assert got == want
        else:
            assert got in (want, np.nextafter(want, -math.inf), np.nextafter(want, math.inf))


def _mp_norm(a, r):
    """|a|_r in the working precision of mpmath."""
    return mpmath.fsum(abs(mpmath.mpf(x)) ** r for x in a) ** (1 / r)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    r=st.one_of(st.floats(1.0 + 1e-7, 1.01), st.floats(8.0, 1e7)),
    rows=st.lists(_wide_vectors(), min_size=1, max_size=4),
)
@example(r=1075.0, rows=[np.array([1.0, 0.0])])
def test_lr_is_exact_at_extreme_exponents(r, rows):
    # near r = 1 the dual exponent is huge, and past r = 1022 the scaled
    # power sum loses its peak term below the smallest normal double; the
    # duality vector's power r - 1 turns a rounding of |a_i| / |a|_r into
    # about r roundings, so its identities hold to a tolerance that grows
    # with r, while the norm holds to a few roundings (a row's too)
    n = max(len(v) for v in rows)
    a = np.array([np.pad(v, (0, n - len(v))) for v in rows])
    with np.errstate(over="ignore"):
        passes = [_lr(row, r) for row in a] + [(nrm, None) for nrm in _lr_rows(a, r)]
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        mr = mpmath.mpf(r)
        for row, (nrm, v) in zip(list(a) * 2, passes):
            peak, ref = float(np.abs(row).max()), _mp_norm(row, mr)
            if peak == 0.0 or ref > sys.float_info.max:
                assert nrm == float(ref) and (v is None or not v.any())
                continue
            assert peak * (1 - 2 * eps) <= nrm <= n ** (1 / r) * peak * (1 + 2 * eps)
            assert abs(nrm - ref) <= 2 * n * eps * ref + 5e-324
            if v is None:
                continue
            pairing = mpmath.fsum(mpmath.mpf(x) * mpmath.mpf(y) for x, y in zip(v, row))
            assert abs(pairing / ref - 1) <= 2 * n * r * eps
            assert abs(_mp_norm(v, mr / (mr - 1)) - 1) <= 2 * n * r * eps
