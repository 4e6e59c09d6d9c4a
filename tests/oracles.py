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


def horner(s: Series, z: complex) -> complex:
    """Value of the truncated polynomial at one point."""
    return complex(np.polyval(s.coeffs[::-1], z))


def alexander_inverse(g: FunctionSeries) -> FunctionSeries:
    """The f with z f'(z) = g(z), i.e. a_n = b_n / n."""
    c = np.array(g.coeffs)
    c[1:] = c[1:] / np.arange(1, g.order + 1)
    return FunctionSeries(c)


def fixed_measure(seed: int, k: int) -> AtomicMeasure:
    """k atoms from a generator of their own: angles uniform on [0, 2pi), then simplex weights."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, k)
    weights = rng.dirichlet(np.ones(k))
    return AtomicMeasure(tuple(angles), tuple(weights / weights.sum()))
