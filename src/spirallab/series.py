"""Truncated complex power series and the few operations the lab runs on them.

A :class:`Series` is a dense, immutable vector of complex Taylor
coefficients ``c_0..c_N`` for a fixed truncation order ``N``.  Members
are built by ``exp_zero`` of their log series; ``div`` recovers the
coefficients c_k of the derivation chain; ``eval_circle`` samples a
series on a circle for the membership grid.  A quotient truncates to
the smaller operand order, so loss of degrees is always explicit and a
result is never silently extended.
"""

from __future__ import annotations

import numpy as np

#: Default truncation order used by constructors that do not specify one.
ORDER_DEFAULT = 64

#: Quotient guard: a denominator constant term at or below this magnitude
#: makes the quotient numerically meaningless in double precision.
DIV_FLOOR = 1e-12

#: Tolerance for the "constant term is 0" precondition of exp_zero.  The
#: package produces that constant exactly; a violation is a caller bug.
TOL_EXACT = 1e-12


class DivisionByNearZeroConstant(ArithmeticError):
    """Denominator constant term is too close to zero for a quotient."""


class NonzeroConstantTerm(ValueError):
    """exp_zero requires a series with constant term 0."""


#: Longest BLAS dot a recurrence step calls.  OpenBLAS sums a ``zdotu`` of at
#: most 10,000 elements on one thread and splits a longer one across threads,
#: which rounds otherwise, so a longer sum is cut into dots of this length.
DOT_MAX = 10_000


def _stacked_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column-wise dot products of two (k, B) arrays: one cblas zdotu per column, as np.dot."""
    return (x.T[:, None, :] @ y.T[:, :, None])[:, 0, 0]


def _long_dot(dot, x: np.ndarray, y: np.ndarray):
    """dot(x, y) as dots of at most DOT_MAX elements each, added in order from the first."""
    total = dot(x[:DOT_MAX], y[:DOT_MAX])
    for i in range(DOT_MAX, len(x), DOT_MAX):
        total = total + dot(x[i : i + DOT_MAX], y[i : i + DOT_MAX])
    return total


def exp_rows(c: np.ndarray) -> np.ndarray:
    """Exponential of each series along the last axis of c, whose c[..., 0] must be 0.

    Uses the convolution recurrence ``k b_k = sum_{j<=k} j a_j b_{k-j}``,
    which costs O(N^2) and needs no root finding.  The b_j are kept
    reversed, so each step dots two contiguous slices in the order
    j = 1..k and no step copies a reversed view.  The loop runs on
    transposed views, so one series (``ndarray.dot``) and a stack of them
    (one dot per series, :func:`_stacked_dot`) share it, and every row is
    bit for bit the exponential of that series alone.  A step past
    DOT_MAX terms adds its dots by :func:`_long_dot`, so no coefficient
    depends on the BLAS thread count.
    """
    rows = c.reshape(-1, c.shape[-1]) if c.ndim > 2 else c
    n = rows.shape[-1] - 1
    ka = (np.arange(n + 1) * rows).T
    rb = np.zeros(rows.shape, dtype=np.complex128)  # rb[..., n - j] = b_j
    rb[..., n] = 1.0
    b = rb.T
    dot = np.ndarray.dot if rows.ndim == 1 else _stacked_dot
    for k in range(1, min(n, DOT_MAX) + 1):
        b[n - k] = dot(ka[1 : k + 1], b[n - k + 1 :]) / k
    for k in range(DOT_MAX + 1, n + 1):
        b[n - k] = _long_dot(dot, ka[1 : k + 1], b[n - k + 1 :]) / k
    return rb[..., ::-1].reshape(c.shape)


class Series:
    """A power series truncated at a fixed order: ``sum c_k z^k, k <= order``.

    Instances are immutable; all operations are pure functions returning
    new instances, so values can be shared freely across threads.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
        c.setflags(write=False)
        self._c = c

    # ------------------------------------------------------------------
    # basic structure

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient vector ``c_0..c_N``."""
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def __repr__(self) -> str:
        shown = ", ".join(f"{c:.6g}" for c in self._c[:4])
        more = ", ..." if self._c.size > 4 else ""
        return f"Series(order={self.order}, [{shown}{more}])"

    # ------------------------------------------------------------------
    # quotient (result order = min of operand orders)

    def div(self, other: "Series") -> "Series":
        """Quotient q with ``other * q == self`` up to the common order."""
        b = other._c
        if abs(b[0]) <= DIV_FLOOR:
            raise DivisionByNearZeroConstant(
                f"|denominator constant term| = {abs(b[0]):.3e} <= {DIV_FLOOR:g}"
            )
        n = min(self.order, other.order)
        a, b0, b1 = self._c, b[0], b[1:]
        rq = np.zeros(n + 1, dtype=np.complex128)  # rq[n - j] = q_j
        rq[n] = a[0] / b0
        for k in range(1, min(n, DOT_MAX) + 1):
            rq[n - k] = (a[k] - b1[:k].dot(rq[n - k + 1 :])) / b0
        for k in range(DOT_MAX + 1, n + 1):
            rq[n - k] = (a[k] - _long_dot(np.ndarray.dot, b1[:k], rq[n - k + 1 :])) / b0
        return Series(rq[::-1])

    # ------------------------------------------------------------------
    # transcendental map

    def exp_zero(self) -> "Series":
        """Exponential of a series with zero constant term, by :func:`exp_rows`."""
        if abs(self._c[0]) > TOL_EXACT:
            raise NonzeroConstantTerm(f"constant term {self._c[0]:.3e} is not 0")
        return Series(exp_rows(self._c))

    # ------------------------------------------------------------------
    # evaluation

    def eval_circle(self, r: float, m: int) -> np.ndarray:
        """Values at the uniform grid ``z_j = r exp(2 pi i j / m), j = 0..m-1``.

        Computed exactly (up to rounding) by one inverse FFT of length m.
        At most m scaled coefficients go in as they are, zero-padded inside
        the FFT; more are first folded modulo m, since the grid characters
        are periodic in the coefficient index.
        """
        scaled = self._c * (float(r) ** np.arange(self._c.size))
        if scaled.size > m:
            buf = np.zeros(-(-scaled.size // m) * m, dtype=np.complex128)
            buf[: scaled.size] = scaled
            scaled = buf.reshape(-1, m).sum(axis=0)
        values = np.fft.ifft(scaled, m)
        values *= m
        return values


class FunctionSeries(Series):
    """A normalized function ``f(z) = z + a_2 z^2 + ...``: a Series with a_0 = 0, a_1 = 1.

    The normalization must hold exactly; constructors in this package
    produce it exactly, so any violation is treated as a caller bug.
    """

    __slots__ = ()

    def __init__(self, coeffs):
        super().__init__(coeffs)
        c = self._c
        if c.size < 2 or c[0] != 0 or c[1] != 1:
            raise ValueError("normalized function needs a_0 = 0 and a_1 = 1 exactly")

    def a(self, n: int) -> complex:
        """Taylor coefficient a_n of f."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside order {self.order}")
        return complex(self._c[n])

    def __repr__(self) -> str:
        return f"FunctionSeries(order={self.order})"
