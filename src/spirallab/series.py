"""Truncated complex power series and the few operations the lab runs on them.

A :class:`Series` is a dense, immutable vector of complex Taylor
coefficients ``c_0..c_N`` for a fixed truncation order ``N``.  Members
are built by ``exp_zero`` of their log series; ``div`` recovers the
coefficients c_k of the derivation chain; ``eval_circle`` samples a
series on a membership circle by short FFTs on its sub-circles.  A
quotient truncates to the smaller operand order, so loss of degrees is
always explicit and a result is never silently extended.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

#: Default truncation order used by constructors that do not specify one.
ORDER_DEFAULT = 64

#: Quotient guard: a denominator constant term at or below this magnitude
#: makes the quotient numerically meaningless in double precision.
DIV_FLOOR = 1e-12

#: Tolerance for the "constant term is 0" precondition of exp_zero.  The
#: package produces that constant exactly; a violation is a caller bug.
TOL_EXACT = 1e-12


#: Longest BLAS dot a recurrence step calls.  OpenBLAS sums a ``zdotu`` of at
#: most 10,000 elements on one thread and splits a longer one across threads,
#: which rounds otherwise, so a longer sum is cut into dots of this length.
DOT_MAX = 10_000


def _stack_views(x: np.ndarray, y: np.ndarray) -> tuple:
    """(B, 1, k) and (B, k, 1) views of two (B, k) arrays; their matmul is one zdotu per row."""
    return x[:, None, :], y[:, :, None]


def _stacked_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (B, k) arrays, as a (B, 1, 1) array, each as np.dot."""
    return np.matmul(*_stack_views(x, y))


def _long_dot(dot, x: np.ndarray, y: np.ndarray):
    """dot(x, y) over the last axis as dots of at most DOT_MAX elements, added in order."""
    total = dot(x[..., :DOT_MAX], y[..., :DOT_MAX])
    for i in range(DOT_MAX, x.shape[-1], DOT_MAX):
        total = total + dot(x[..., i : i + DOT_MAX], y[..., i : i + DOT_MAX])
    return total


_local = threading.local()


def _dot_aligned(size: int) -> np.ndarray:
    """An empty complex vector whose element 1, where every step's first operand starts, begins
    a 64-byte line.  Where malloc puts a buffer is an accident of the heap's history, and at
    order 4096 the recurrence ran 10% slower, with the same bits, when its first operands
    started at an odd multiple of 16 bytes."""
    raw = np.empty(16 * size + 64, dtype=np.uint8)
    start = (48 - raw.ctypes.data) % 64
    return raw[start : start + 16 * size].view(np.complex128)


def _plan(shape: tuple):
    """This thread's (arange, ka, rb, b, dot, steps) for exp_rows of a c of this shape.

    ka receives arange * c laid out as c, and rb[..., n - j] = b_j.  Step k <=
    DOT_MAX is (k, n - k, x, y): b[n - k] = dot(x, y) / k, dot being ndarray.dot
    for one series and, for a stack, np.matmul on the :func:`_stack_views` of
    the rows, as :func:`_stacked_dot` (b a (n + 1, B, 1, 1) view of rb's
    columns).  A thread keeps the plan of the last shape only.
    """
    key = (shape, DOT_MAX)  # a plan holds the views of the steps up to DOT_MAX
    plan = getattr(_local, "plan", None)
    if plan is None or plan[0] != key:
        n = shape[-1] - 1
        ka = _dot_aligned(shape[0]) if len(shape) == 1 else np.empty(shape, dtype=np.complex128)
        rb = np.empty(shape, dtype=np.complex128)
        if len(shape) == 1:
            b, dot, views = rb, np.ndarray.dot, lambda x, y: (x, y)
        else:
            b, dot, views = rb.T[:, :, None, None], np.matmul, _stack_views
        ks = range(1, min(n, DOT_MAX) + 1)
        steps = [(k, n - k, *views(ka[..., 1 : k + 1], rb[..., n - k + 1 :])) for k in ks]
        plan = _local.plan = (key, np.arange(n + 1), ka, rb, b, dot, steps)
    return plan[1:]


def exp_rows(c: np.ndarray) -> np.ndarray:
    """Exponential of one series c, or of each row of a 2-D c; c[..., 0] must be 0.

    Uses the convolution recurrence ``k b_k = sum_{j<=k} j a_j b_{k-j}``,
    which costs O(N^2) and needs no root finding.  The b_j are kept
    reversed, so each step dots two contiguous slices in the order
    j = 1..k and no step copies a reversed view.  The slices are made once
    per thread for the last shape (:func:`_plan`), so a step is one dot,
    one division and one store.  A stack takes one dot per series, and every
    row is bit for bit the exponential of that series alone.  A step past
    DOT_MAX terms adds its dots by :func:`_long_dot`, so no coefficient
    depends on the BLAS thread count.  Returns a new C-order array.
    """
    ar, ka, rb, b, dot, steps = _plan(c.shape)
    np.multiply(ar, c, out=ka)
    n = ar.size - 1
    rb[..., n] = 1.0
    for k, i, x, y in steps:
        b[i] = dot(x, y) / k
    if n > DOT_MAX:
        long_dot = np.ndarray.dot if c.ndim == 1 else _stacked_dot
        for k in range(DOT_MAX + 1, n + 1):
            b[n - k] = _long_dot(long_dot, ka[..., 1 : k + 1], rb[..., n - k + 1 :]) / k
    return rb[..., ::-1].copy()


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
            raise ZeroDivisionError(
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
            raise ValueError(f"constant term {self._c[0]:.3e} is not 0")
        return Series(exp_rows(self._c))

    # ------------------------------------------------------------------
    # evaluation

    def eval_circle(self, r: float, m: int, out: np.ndarray | None = None) -> np.ndarray:
        """Values at the uniform grid ``z_j = r exp(2 pi i j / m), j = 0..m-1``.

        Computed exactly (up to rounding) by P inverse FFTs of length L = m / P,
        P the largest power of two dividing m with L >= N + 1 (else 1), one per
        sub-circle j = a + P b: f(z_j) = sum_k (s_k w^{ak}) exp(2 pi i b k / L) for
        s_k = c_k r^k and w = exp(2 pi i / m).  More than L coefficients (P = 1) are
        first folded modulo L, since the grid characters are periodic in k.  With
        out, a C-contiguous complex array of m elements, the values are written
        there and the result is a view of it.
        """
        twiddles = _twiddles(m, self._c.size)
        width, p = twiddles.shape
        scaled = self._c * (float(r) ** np.arange(self._c.size))
        if width < scaled.size:
            blocks = np.zeros(-(-scaled.size // width) * width, dtype=np.complex128)
            blocks[: scaled.size] = scaled
            scaled = blocks.reshape(-1, width).sum(axis=0)
        buf = np.empty(m, dtype=np.complex128) if out is None else out
        buf = buf.reshape(m // p, p)  # a view, row b, column a: point a + P b
        np.multiply(twiddles, scaled[:, None], out=buf[:width])
        buf[width:] = 0.0
        return np.fft.ifft(buf, axis=0, norm="forward", out=buf).reshape(m)


@functools.lru_cache(maxsize=8)
def _twiddles(m: int, size: int) -> np.ndarray:
    """Read-only (min(size, m / P), P) table w^{ak} = exp(2 pi i a k / m) of ``eval_circle``."""
    p = m & -m
    while p > 1 and m // p < size:
        p //= 2
    table = np.exp(2j * np.pi * np.outer(np.arange(min(size, m // p)), np.arange(p)) / m)
    table.setflags(write=False)
    return table


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
