import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spirallab import (
    ClassSpec,
    FunctionSeries,
    Series,
    herglotz,
    member_from_measure,
    random_measure,
)
from spirallab import series
from spirallab.series import exp_rows
from conftest import assert_series_close
from oracles import (
    div_sliced,
    eval_circle_folded,
    eval_circle_subcircles,
    exp_zero_sliced,
    horner,
    log_unit,
    mul,
)

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
    message = r"^\|denominator constant term\| = 1\.000e-13 <= 1e-12$"
    with pytest.raises(ZeroDivisionError, match=message):
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
    with pytest.raises(ValueError, match=r"^constant term 5\.000e-01\+0\.000e\+00j is not 0$"):
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


def test_exp_rows_plans_keep_every_bit_as_shapes_come_and_go():
    # a thread keeps the plan of the last shape: reused by a repeat, rebuilt on a change
    rng = np.random.default_rng(29)
    shapes = [(9,), (9,), (3, 9), (40,), (5, 40), (5, 40), (1, 9), (9,)]
    for shape in shapes:
        c = random_complex(rng, shape) / np.arange(1, shape[-1] + 1)
        c[..., 0] = 0.0
        got = exp_rows(c)
        assert got.shape == shape and got.flags.c_contiguous
        for row, g in zip(c.reshape(-1, shape[-1]), got.reshape(-1, shape[-1])):
            assert np.array_equal(g, exp_zero_sliced(Series(row)).coeffs)


def test_exp_rows_first_operands_start_a_cache_line():
    # where malloc puts a buffer is an accident of the heap; a series' recurrence dots
    # ka[1 : k + 1], which starts a 64-byte line at every order
    for size in (2, 3, 22, 257, 4097):
        series._local.plan = None
        exp_rows(np.zeros(size, dtype=np.complex128))
        assert series._local.plan[2][1:].ctypes.data % 64 == 0


def test_exp_rows_returns_an_array_no_later_call_writes():
    rng = np.random.default_rng(30)
    for shape in [(64,), (4, 64)]:
        c = random_complex(rng, shape) / np.arange(1, 65)
        c[..., 0] = 0.0
        first = exp_rows(c)
        kept = first.copy()
        second = exp_rows(2.0 * c)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert not np.array_equal(second, kept)


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


def _circle_ms(size):
    # m below, equal to and above the coefficient count, powers of two or not, and 16 * size,
    # whose sub-circles have the odd length size
    ms = {1, 2, 3, max(size - 1, 1), size, size + 1, 2 * size + 3, 64, 1000, 1024, 4096}
    return ms | {16 * size}


def _random_series(size):
    rng = np.random.default_rng(size)
    return Series(rng.normal(size=size) + 1j * rng.normal(size=size))


@pytest.mark.parametrize("size", [1, 2, 7, 30, 64, 100, 257])
def test_eval_circle_is_bitwise_one_inverse_fft_per_subcircle(size):
    s = _random_series(size)
    for m in _circle_ms(size):
        for r in (0.5, 0.99, 1.0):
            assert np.array_equal(s.eval_circle(r, m), eval_circle_subcircles(s, r, m))


@pytest.mark.parametrize("size", [1, 2, 7, 30, 64, 100, 257])
def test_eval_circle_is_within_rounding_of_the_folded_form(size):
    s = _random_series(size)
    for m in _circle_ms(size):
        for r in (0.5, 0.99, 1.0):
            folded = eval_circle_folded(s, r, m)
            err = np.max(np.abs(s.eval_circle(r, m) - folded))
            assert err <= 1e-14 * np.max(np.abs(folded))


def test_eval_circle_at_the_high_order_membership_shape():
    # order 4096 on m = 65536: eight sub-circles of length 8192
    s = _random_series(4097)
    assert series._twiddles(65536, 4097).shape == (4097, 8)
    for r in (0.5, 0.99):
        values = s.eval_circle(r, 65536)
        assert np.array_equal(values, eval_circle_subcircles(s, r, 65536))
        folded = eval_circle_folded(s, r, 65536)
        assert np.max(np.abs(values - folded)) <= 1e-14 * np.max(np.abs(folded))


@pytest.mark.parametrize("size, m", [(30, 16), (100, 100), (257, 4096), (4097, 65536)])
def test_eval_circle_into_a_buffer_is_bitwise_the_same(size, m):
    # P = 1 with 30 coefficients folded modulo 16, and with one block of 100; then P > 1
    s = _random_series(size)
    for r in (0.5, 0.99):
        buf = np.full(m, np.nan, dtype=np.complex128)
        got = s.eval_circle(r, m, out=buf)
        assert np.shares_memory(got, buf) and np.array_equal(got, buf)
        assert np.array_equal(got, s.eval_circle(r, m))
        assert np.array_equal(got, eval_circle_subcircles(s, r, m))


def test_twiddle_table_is_built_once_per_m_and_size_and_read_only():
    series._twiddles.cache_clear()
    for r in (0.5, 0.9, 0.99):
        _random_series(100).eval_circle(r, 4096)
    Series(np.ones(100)).eval_circle(0.5, 4096)
    info = series._twiddles.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    table = series._twiddles(4096, 100)
    assert table.shape == (100, 32) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0
    for m in (1, 7, 1000, 1024, 4096, 65536):
        for size in (1, 100, 257, 4097):
            assert series._twiddles(m, size).nbytes <= 16 * m


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
    with pytest.raises(IndexError, match="^coefficient index -1 outside order 2$"):
        f.a(-1)
    assert f.order == 2
    assert isinstance(f, Series)
