"""Independent reference implementations for the tests.

The package runs none of these.  Each is the plain textbook route to a
quantity, so a test can check the package's own routine against it.
"""

import math

import numpy as np

from spirallab import AtomicMeasure, FunctionSeries, Series


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated at the smaller operand order."""
    n = min(a.order, b.order)
    return Series(np.convolve(a.coeffs[: n + 1], b.coeffs[: n + 1])[: n + 1])


def log_unit(b: Series) -> Series:
    """Principal logarithm of a series with constant term 1.

    From b' = a' b: k a_k = k b_k - sum_{1<=j<k} j a_j b_{k-j}.
    """
    c = b.coeffs
    a = np.zeros(b.order + 1, dtype=np.complex128)
    for k in range(1, b.order + 1):
        s = np.dot(np.arange(1, k) * a[1:k], c[k - 1 : 0 : -1]) if k > 1 else 0.0
        a[k] = (k * c[k] - s) / (k * c[0])
    return Series(a)


def exp_zero_sliced(s: Series) -> Series:
    """exp of a zero-constant series by k b_k = sum_{j<=k} j a_j b_{k-j}, reading b reversed by slicing.

    The same products summed in the same order as ``Series.exp_zero``,
    which keeps b in a reversed buffer instead, so the two agree bit for bit.
    """
    n = s.order
    ka = np.arange(n + 1) * s.coeffs
    b = np.zeros(n + 1, dtype=np.complex128)
    b[0] = 1.0
    for k in range(1, n + 1):
        b[k] = np.dot(ka[1 : k + 1], b[k - 1 :: -1][:k]) / k
    return Series(b)


def div_sliced(a: Series, b: Series) -> Series:
    """Quotient by q_k = (a_k - sum_{1<=j<=k} b_j q_{k-j}) / b_0, reading q reversed by slicing.

    Bit for bit what ``Series.div`` computes from its reversed buffer.
    """
    n = min(a.order, b.order)
    ac, bc = a.coeffs, b.coeffs
    q = np.zeros(n + 1, dtype=np.complex128)
    q[0] = ac[0] / bc[0]
    for k in range(1, n + 1):
        q[k] = (ac[k] - np.dot(bc[1 : k + 1], q[k - 1 :: -1][:k])) / bc[0]
    return Series(q)


def gamma_ratios(alpha: float, n: int) -> list:
    """Gamma(1 - 2 alpha + j) / (Gamma(1 - 2 alpha) Gamma(j + 1)) for j = 0..n, by a k-loop.

    Entry j is the running product after multiplying in (k - 2 alpha)/k
    for k = 1..j, one factor at a time, which ``gamma_ratio`` matches bit for bit.
    """
    values = [1.0]
    for k in range(1, n + 1):
        values.append(values[-1] * ((k - 2.0 * alpha) / k))
    return values


def circle(r: float, m: int) -> np.ndarray:
    """The m grid points r exp(2 pi i j / m), built afresh on each call."""
    return r * np.exp(2j * np.pi * np.arange(m) / m)


def eval_circle_folded(s: Series, r: float, m: int) -> np.ndarray:
    """Values on the m-point circle of radius r by the fold that ``Series.eval_circle`` once
    ran for every m: the scaled coefficients zero-padded to a multiple of m, summed modulo m,
    then one inverse FFT of length m."""
    scaled = s.coeffs * (float(r) ** np.arange(s.coeffs.size))
    total = ((scaled.size + m - 1) // m) * m
    buf = np.zeros(total, dtype=np.complex128)
    buf[: scaled.size] = scaled
    return m * np.fft.ifft(buf.reshape(-1, m).sum(axis=0))


def horner(s: Series, z: complex) -> complex:
    """Value of the truncated polynomial at one point."""
    return complex(np.polyval(s.coeffs[::-1], z))


def alexander_inverse(g: FunctionSeries) -> FunctionSeries:
    """The f with z f'(z) = g(z), i.e. a_n = b_n / n."""
    c = np.array(g.coeffs)
    c[1:] = c[1:] / np.arange(1, g.order + 1)
    return FunctionSeries(c)


def herglotz_by_atom(measure: AtomicMeasure, order: int) -> np.ndarray:
    """h_0 = 1 and h_n = 2 sum_j w_j exp(-i n t_j), n = 1..order, adding one atom at a time.

    The same products added in the same order as ``herglotz``, so the two agree bit for bit.
    """
    n = np.arange(order + 1)
    total = np.zeros(order + 1, dtype=np.complex128)
    for t, w in zip(measure.angles, measure.weights):
        total = total + w * np.exp(-1j * (t * n))
    h = 2.0 * total
    h[0] = 1.0
    return h


def fixed_measure(seed: int, k: int) -> AtomicMeasure:
    """k atoms from a generator of their own: angles uniform on [0, 2pi), then simplex weights."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, k)
    weights = rng.dirichlet(np.ones(k))
    return AtomicMeasure(tuple(angles), tuple(weights / weights.sum()))
