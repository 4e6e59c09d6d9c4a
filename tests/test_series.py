import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spirallab import (
    ClassSpec,
    DivisionByNearZeroConstant,
    FunctionSeries,
    NonzeroConstantTerm,
    Series,
    herglotz,
    member_from_measure,
    random_measure,
)
from spirallab import series
from spirallab.series import exp_rows
from conftest import assert_series_close
from oracles import div_sliced, eval_circle_folded, exp_zero_sliced, horner, log_unit, mul

TOL_ALGEBRA = 1e-9


def zero(order):
    return Series(np.zeros(order + 1))


def one(order):
    c = np.zeros(order + 1)
    c[0] = 1.0
    return Series(c)


def plus(a, b):
    """Coefficientwise sum over the common truncation order."""
    n = min(a.order, b.order)
    return Series(a.coeffs[: n + 1] + b.coeffs[: n + 1])


def geometric(order):
    return Series(np.ones(order + 1))


def one_minus_z(order):
    c = np.zeros(order + 1)
    c[0], c[1] = 1.0, -1.0
    return Series(c)


# ----------------------------------------------------------------------
# construction and invariants


def test_coeff_vector_length_is_order_plus_one():
    s = Series([1, 2, 3])
    assert s.order == 2
    assert s.coeffs.shape == (3,)


def test_coeffs_are_read_only():
    s = Series([1, 2, 3])
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


def test_empty_coeffs_rejected():
    with pytest.raises(ValueError):
        Series([])


def test_result_order_is_min_of_operands():
    a = Series(np.ones(11))
    b = Series(np.ones(5))
    assert a.div(b).order == 4
    assert b.div(a).order == 4


# ----------------------------------------------------------------------
# the reference Cauchy product, which the div tests rely on


def test_mul_geometric_inverse():
    # (1 - z) * sum z^k = 1 up to the order
    prod = mul(one_minus_z(32), geometric(32))
    assert_series_close(prod, one(32), 0)


def test_mul_koebe_over_z_times_one_minus_z():
    # hand Cauchy product: (1 - z) * sum (n+1) z^n has all coefficients 1
    koebe_over_z = Series(np.arange(1, 34, dtype=float))
    prod = mul(one_minus_z(32), koebe_over_z)
    assert_series_close(prod, geometric(32), 1e-12)


def test_mul_identity():
    s = Series([2, 3j, -1, 0.5])
    assert_series_close(mul(s, one(3)), s, 0)


# ----------------------------------------------------------------------
# div


def test_div_geometric_series():
    q = one(24).div(one_minus_z(24))
    assert_series_close(q, geometric(24), 1e-12)


def test_div_by_self_is_one():
    s = Series([1.5, 2, -3, 4, 0.25])
    assert_series_close(s.div(s), one(4), 1e-13)


def test_div_half_plane_extremal_coefficients():
    # (1 - z/2) / (1-z)^2 = sum (m+2)/2 z^m, the shifted extremal profile
    numer = Series(np.concatenate([[1.0, -0.5], np.zeros(29)]))
    denom = mul(one_minus_z(30), one_minus_z(30))
    q = numer.div(denom)
    expect = Series((np.arange(31) + 2) / 2.0)
    assert_series_close(q, expect, 1e-12)


def test_div_near_zero_constant_raises():
    num = Series([1, 2, 3])
    with pytest.raises(DivisionByNearZeroConstant):
        num.div(Series([1e-13, 1, 1]))


# ----------------------------------------------------------------------
# exp, and the reference log it is checked against


def test_log_one_minus_z_is_mercator():
    got = log_unit(one_minus_z(24))
    k = np.arange(1, 25)
    expect = Series(np.concatenate([[0.0], -1.0 / k]))
    assert_series_close(got, expect, 1e-12)


def test_log_of_koebe_over_z():
    # log(koebe/z) = -2 log(1-z) = sum 2 z^k / k
    koebe_over_z = Series(np.arange(1, 32, dtype=float))
    got = log_unit(koebe_over_z)
    k = np.arange(1, 31)
    expect = Series(np.concatenate([[0.0], 2.0 / k]))
    assert_series_close(got, expect, 1e-10)


def test_exp_of_zero_series_is_one():
    assert_series_close(zero(10).exp_zero(), one(10), 0)


def test_exp_reproduces_binomial_coefficients():
    # exp(sum 2 z^k / k) = (1-z)^{-2} = sum (n+1) z^n
    k = np.arange(1, 41)
    s = Series(np.concatenate([[0.0], 2.0 / k]))
    got = s.exp_zero()
    assert_series_close(got, Series(np.arange(1, 42, dtype=float)), 1e-10)


def test_exp_log_inverse_pair():
    s = one_minus_z(20)
    assert_series_close(log_unit(s).exp_zero(), s, 1e-12)
    t = Series(np.concatenate([[0.0], np.full(20, 0.3)]))
    assert_series_close(log_unit(t.exp_zero()), t, 1e-12)


def test_exp_zero_precondition():
    with pytest.raises(NonzeroConstantTerm):
        Series([0.5, 1.0]).exp_zero()


# ----------------------------------------------------------------------
# exp_zero and div keep their summation order: bit for bit the slicing
# recurrences in tests/oracles.py

BITWISE_ORDERS = [*range(65), 256, 4096]


def member_log_series(order, seed=4):
    """log(f/z) of a sampled spirallike member (gamma 0.3, alpha 0.25, 4 atoms) to ``order``."""
    spec = ClassSpec("spirallike", gamma=0.3, alpha=0.25)
    h = herglotz(random_measure(np.random.default_rng(seed), 4), order).coeffs
    factor = np.exp(1j * spec.gamma) * math.cos(spec.gamma) * (1 - spec.alpha)
    return np.concatenate([[0.0], factor * h[1:] / np.arange(1, order + 1)])


def random_complex(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


@pytest.mark.parametrize("order", BITWISE_ORDERS)
def test_exp_zero_is_bitwise_the_slicing_recurrence(order):
    rng = np.random.default_rng(order)
    # coefficients of size 1/k keep the exponential finite at every order
    tail = random_complex(rng, order) / np.arange(1, order + 1)
    s = Series(np.concatenate([[0.0], tail]))
    assert np.array_equal(s.exp_zero().coeffs, exp_zero_sliced(s).coeffs)


@pytest.mark.parametrize("order", [*range(1, 65), 1024])
def test_batched_exp_rows_are_bitwise_exp_zero_row_by_row(order):
    # a stack of series takes one cblas zdotu per row and step, as np.dot does for one
    rng = np.random.default_rng(order)
    tails = random_complex(rng, (16, order)) / np.arange(1, order + 1)
    rows = np.concatenate([np.zeros((16, 1)), tails], axis=1)
    expected = [Series(row).exp_zero().coeffs for row in rows]
    for batch in range(1, 17):
        got = exp_rows(rows[:batch])
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))
    assert np.array_equal(exp_rows(rows[:6].reshape(2, 3, -1)).reshape(6, -1), exp_rows(rows[:6]))


@pytest.mark.parametrize("order", BITWISE_ORDERS)
def test_div_is_bitwise_the_slicing_recurrence(order):
    rng = np.random.default_rng(order)
    a = Series(random_complex(rng, order + 1))
    # |b_0| = 2 dominates sum |b_k|, k >= 1, so the quotient stays finite
    tail = random_complex(rng, order) / np.arange(2, order + 2) ** 2
    b = Series(np.concatenate([[2.0 * np.exp(1j * rng.uniform(0, 2 * np.pi))], tail]))
    assert np.array_equal(a.div(b).coeffs, div_sliced(a, b).coeffs)


@pytest.mark.parametrize("order", [8, 9, 17, 40])
def test_recurrence_sums_past_dot_max_add_their_dots_in_order(monkeypatch, order):
    # OpenBLAS splits a dot longer than 10,000 elements across threads, so a longer sum is
    # cut into dots of DOT_MAX terms added first to last; DOT_MAX = 8 shows it at small order
    monkeypatch.setattr(series, "DOT_MAX", 8)
    rng = np.random.default_rng(order)
    tails = random_complex(rng, (3, order)) / np.arange(1, order + 1)
    rows = np.concatenate([np.zeros((3, 1)), tails], axis=1)
    expected = [exp_zero_sliced(Series(row), chunk=8).coeffs for row in rows]
    assert all(np.array_equal(Series(r).exp_zero().coeffs, e) for r, e in zip(rows, expected))
    assert all(np.array_equal(g, e) for g, e in zip(exp_rows(rows), expected))
    a, b = Series(random_complex(rng, order + 1)), Series(expected[0])
    assert np.array_equal(a.div(b).coeffs, div_sliced(a, b, chunk=8).coeffs)


def test_member_series_at_order_4096_are_bitwise_the_slicing_recurrences():
    s = Series(member_log_series(4095))
    u = exp_zero_sliced(s)
    assert np.array_equal(s.exp_zero().coeffs, u.coeffs)
    f = member_from_measure(
        random_measure(np.random.default_rng(4), 4),
        ClassSpec("spirallike", gamma=0.3, alpha=0.25),
        4096,
    )
    assert np.array_equal(f.coeffs[1:], u.coeffs)
    # z f'/f = f'/(f/z) as a series
    fp = Series(np.arange(1, f.order + 1) * f.coeffs[1:])
    assert np.array_equal(fp.div(u).coeffs, div_sliced(fp, u).coeffs)


def test_exp_zero_against_40_digit_recurrence():
    # the sampled member's log series at order 64, exponentiated in mpmath
    mpmath = pytest.importorskip("mpmath")
    s = Series(member_log_series(64))
    got = s.exp_zero().coeffs
    with mpmath.workdps(40):
        ka = [j * mpmath.mpc(c.real, c.imag) for j, c in enumerate(s.coeffs)]
        b = [mpmath.mpc(1)]
        for k in range(1, s.order + 1):
            b.append(mpmath.fsum(ka[j] * b[k - j] for j in range(1, k + 1)) / k)
        err = max(
            abs(mpmath.mpc(g.real, g.imag) - e) / max(1, abs(e)) for g, e in zip(got, b)
        )
    assert err <= 1e-14, float(err)


# ----------------------------------------------------------------------
# eval_circle, and the reference Horner evaluation it is checked against


def test_eval_simple():
    assert horner(Series([1, 1]), 0.5) == pytest.approx(1.5)


def test_eval_at_zero_gives_constant_term():
    s = Series([2 - 3j, 5, 7])
    assert horner(s, 0.0) == 2 - 3j


def test_eval_finite_geometric_sum():
    n = 20
    r = 0.7
    val = horner(geometric(n), r)
    assert val == pytest.approx((1 - r ** (n + 1)) / (1 - r), rel=1e-14)


def test_eval_circle_constant():
    vals = one(8).eval_circle(0.5, 4)
    assert np.allclose(vals, np.ones(4))


def test_eval_circle_identity_map_roots_of_unity():
    vals = Series([0, 1]).eval_circle(1.0, 4)
    assert np.allclose(vals, [1, 1j, -1, -1j], atol=1e-14)


def test_eval_circle_single_point_geometric():
    vals = geometric(64).eval_circle(0.5, 1)
    assert vals.shape == (1,)
    assert vals[0] == pytest.approx(2.0, abs=1e-12)


def test_eval_circle_matches_eval_when_m_below_order():
    s = Series(np.linspace(1, 2, 30) + 1j * np.linspace(-1, 1, 30))
    m = 7
    vals = s.eval_circle(0.8, m)
    for j in range(m):
        z = 0.8 * np.exp(2j * np.pi * j / m)
        assert vals[j] == pytest.approx(horner(s, z), rel=1e-12)


@pytest.mark.parametrize("size", [1, 2, 7, 30, 64, 100, 257])
def test_eval_circle_is_bitwise_the_folded_form(size):
    # m below, equal to and above the coefficient count, powers of two or not
    rng = np.random.default_rng(size)
    s = Series(rng.normal(size=size) + 1j * rng.normal(size=size))
    for m in {1, 2, 3, max(size - 1, 1), size, size + 1, 2 * size + 3, 64, 1000, 1024}:
        for r in (0.5, 0.99, 1.0):
            assert np.array_equal(s.eval_circle(r, m), eval_circle_folded(s, r, m))


# ----------------------------------------------------------------------
# property tests

finite = dict(allow_nan=False, allow_infinity=False)


def series_strategy(max_order=64, max_mag=10.0):
    return st.integers(0, max_order).flatmap(
        lambda n: st.lists(
            st.complex_numbers(max_magnitude=max_mag, **finite),
            min_size=n + 1,
            max_size=n + 1,
        ).map(Series)
    )


@given(series_strategy(), series_strategy())
def test_mul_commutes(a, b):
    assert_series_close(mul(a, b), mul(b, a), TOL_ALGEBRA)


@given(series_strategy(32), series_strategy(32), series_strategy(32))
def test_mul_associates(a, b, c):
    assert_series_close(mul(mul(a, b), c), mul(a, mul(b, c)), TOL_ALGEBRA)


@given(series_strategy(32), series_strategy(32), series_strategy(32))
def test_mul_distributes_over_add(a, b, c):
    assert_series_close(mul(a, plus(b, c)), plus(mul(a, b), mul(a, c)), TOL_ALGEBRA)


@st.composite
def dominant_denominator(draw, max_order=64):
    """Series with |b_0| in [0.1, 10] dominating its tail.

    The literal round-trip with unconstrained coefficients up to 10 is
    numerically meaningless: quotient coefficients then grow like
    (coeff/|b_0|)^n, and at order 64 the reconstruction error reaches
    1e+116.  Keeping the tail mass at half of |b_0| keeps the quotient
    bounded, which is the regime where a double-precision round trip is
    a meaningful test.
    """
    n = draw(st.integers(0, max_order))
    b0_mag = draw(st.floats(0.1, 10.0))
    b0_arg = draw(st.floats(0.0, 2 * math.pi))
    tail = np.array(
        draw(
            st.lists(
                st.complex_numbers(max_magnitude=10.0, **finite),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=complex,
    )
    mass = np.sum(np.abs(tail))
    if mass > 0:
        tail *= 0.5 * b0_mag / mass
    b0 = b0_mag * np.exp(1j * b0_arg)
    return Series(np.concatenate([[b0], tail]))


@given(series_strategy(), dominant_denominator())
def test_div_then_mul_round_trip(a, b):
    # assert_series_close compares over the common order, the quotient's
    assert_series_close(mul(a.div(b), b), a, TOL_ALGEBRA)


@st.composite
def zero_constant_series(draw, max_order, max_mag):
    n = draw(st.integers(1, max_order))
    tail = draw(
        st.lists(
            st.complex_numbers(max_magnitude=max_mag, **finite),
            min_size=n,
            max_size=n,
        )
    )
    return Series(np.concatenate([[0.0], tail]))


@given(zero_constant_series(16, 2.0))
def test_exp_then_log_round_trip(s):
    assert_series_close(log_unit(s.exp_zero()), s, TOL_ALGEBRA)


@given(zero_constant_series(16, 2.0))
def test_log_then_exp_round_trip(s):
    b = s.exp_zero()
    assert_series_close(log_unit(b).exp_zero(), b, TOL_ALGEBRA)


def test_exp_log_round_trip_random_order_64():
    # uniform random coefficients bounded by 2, full order
    rng = np.random.default_rng(20240814)
    for _ in range(500):
        n = int(rng.integers(1, 65))
        mag = rng.uniform(0, 2, n)
        arg = rng.uniform(0, 2 * np.pi, n)
        s = Series(np.concatenate([[0.0], mag * np.exp(1j * arg)]))
        assert_series_close(log_unit(s.exp_zero()), s, TOL_ALGEBRA)


@given(series_strategy(48, 5.0), st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi))
def test_eval_matches_direct_summation(s, r, theta):
    z = r * np.exp(1j * theta)
    direct = np.sum(s.coeffs * z ** np.arange(s.order + 1))
    got = horner(s, z)
    assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))


# ----------------------------------------------------------------------
# FunctionSeries


def test_function_series_requires_normalization():
    with pytest.raises(ValueError):
        FunctionSeries([0, 2, 0])
    with pytest.raises(ValueError):
        FunctionSeries([0.1, 1, 0])
    with pytest.raises(ValueError):
        FunctionSeries([0])
    f = FunctionSeries([0, 1, 5])
    assert f.a(2) == 5
    assert f.order == 2
    assert isinstance(f, Series)
