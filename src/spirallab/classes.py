"""Constructors for the function classes under study.

Members are produced two ways.  Named extremal functions get closed-form
coefficients, independent of the series engine, so they can serve as
oracles.  Arbitrary members come from finite atomic measures on the unit
circle: a measure with atoms ``(t_j, w_j)`` generates, via the averaged
half-plane kernels, a function with positive real part, and from it a
class member through the exponential of its weighted log series.  One
and two atoms reproduce the known extremal families exactly, and the
finite atom count gives the extremal searcher a finite-dimensional
parameter space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .series import ORDER_DEFAULT, FunctionSeries, Series, exp_rows

TWO_PI = 2.0 * math.pi

#: Atom weights must sum to one within this tolerance.
WEIGHT_TOL = 1e-12

#: Most atoms a sampled or searched measure may have.
MAX_ATOMS = 16

#: Most atom terms (members x atoms x coefficients) of one batch of members: a round of
#: search's live restarts, or a block of verify's sampled suite.  Only a memory bound: a
#: batch's kernel arrays take 16 bytes a term, so each stays within 1 MiB.
BATCH_TERMS = 2**16

KINDS = ("spirallike", "convex_spirallike", "starlike", "convex", "c_half")

#: Kinds whose members are Alexander transforms of spiral/starlike members.
CONVEX_KINDS = ("convex_spirallike", "convex", "c_half")


class InvalidParams(ValueError):
    """Input outside its valid range: the type of every input error the package raises."""


def check_atoms(angles: np.ndarray, weights: np.ndarray) -> None:
    """Raise InvalidParams unless the atoms form a probability measure on [0, 2pi).

    Every angle must lie in [0, 2pi) and every weight must be nonnegative
    (NaN does neither), and the weights must sum to 1 within WEIGHT_TOL.
    Leading axes hold a batch of measures, each checked the same way; the
    first whose weights do not sum to 1 is named.
    """
    # the ufunc reductions are ndarray.min/max without their Python wrappers
    if not (np.minimum.reduce(angles, None) >= 0.0 and np.maximum.reduce(angles, None) < TWO_PI):
        raise InvalidParams("atom angles must lie in [0, 2pi)")
    if not np.minimum.reduce(weights, None) >= 0.0:
        raise InvalidParams("atom weights must be nonnegative")
    totals = np.add.reduce(weights, -1)  # a scalar for one measure
    for total in [float(totals)] if weights.ndim == 1 else totals.ravel().tolist():
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InvalidParams(f"atom weights sum to {total!r}, not 1")


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many boundary atoms: angles in [0, 2pi) with weights summing to 1."""

    angles: tuple
    weights: tuple

    def __post_init__(self):
        angles = tuple(map(float, self.angles))
        weights = tuple(map(float, self.weights))
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "weights", weights)
        if len(angles) < 1 or len(angles) != len(weights):
            raise InvalidParams("measure needs k >= 1 atoms with matching weights")
        check_atoms(np.array(angles), np.array(weights))


@dataclass(frozen=True)
class ClassSpec:
    """Identifies a function class: kind plus the (gamma, alpha) parameters.

    gamma is the spiral angle in radians, strictly inside (-pi/2, pi/2);
    alpha is the order.  Starlike and convex kinds force gamma = 0, and
    c_half fixes gamma = 0, alpha = -1/2.  Only the starlike kind admits
    alpha < 0.
    """

    kind: str
    gamma: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParams(f"unknown class kind {self.kind!r}")
        if not -math.pi / 2 < self.gamma < math.pi / 2:
            raise InvalidParams("gamma must lie strictly inside (-pi/2, pi/2)")
        if not -math.inf < self.alpha < 1.0:
            raise InvalidParams("alpha must be finite and < 1")
        if self.kind in ("starlike", "convex", "c_half") and self.gamma != 0.0:
            raise InvalidParams(f"kind {self.kind!r} forces gamma = 0")
        if self.kind == "c_half" and self.alpha != -0.5:
            raise InvalidParams("kind 'c_half' forces alpha = -1/2")
        if self.kind in ("spirallike", "convex_spirallike", "convex") and self.alpha < 0.0:
            raise InvalidParams(f"kind {self.kind!r} needs alpha in [0, 1)")

    @property
    def is_convex_kind(self) -> bool:
        return self.kind in CONVEX_KINDS

    def threshold(self) -> float:
        """The right-hand side alpha*cos(gamma) of the defining condition."""
        return self.alpha * math.cos(self.gamma)


def _kernel_sums(angles: np.ndarray, weights: np.ndarray, index: np.ndarray) -> np.ndarray:
    """2 sum_j w_j exp(-i n t_j) for each n in ``index``, adding the atoms in their order.

    No BLAS call: NumPy reduces the atom axis of a (..., k, m) array row by
    row when m >= 2 (one column it sums pairwise), so each sum's bits depend
    only on n and the atoms, not on the length of ``index``, the batch or the
    thread count.  Leading axes of ``angles`` and ``weights`` hold a batch.
    """
    kernels = np.exp(-1j * (angles[..., None] * index))
    return 2.0 * np.add.reduce(weights[..., None] * kernels, -2)


def herglotz(measure: AtomicMeasure, order: int = ORDER_DEFAULT) -> Series:
    """Positive-real-part function generated by an atomic measure.

    h_0 = 1 and h_n = 2 sum_j w_j exp(-i n t_j); a convex combination of
    half-plane kernels (1 + e^{-it} z)/(1 - e^{-it} z), so Re h > 0 on
    the disk by construction.
    """
    h = _kernel_sums(np.asarray(measure.angles), np.asarray(measure.weights), np.arange(order + 1))
    h[0] = 1.0
    return Series(h)


@functools.lru_cache(maxsize=1)
def member_builder(spec: ClassSpec, order: int = ORDER_DEFAULT):
    """Coefficient map of the members of one class, for many measures.

    Returns ``build(angles, weights) -> a_0..a_order`` for float arrays of
    atoms that :func:`check_atoms` accepts; it does not check them again.
    A batch is atoms of shape (B, k), giving coefficients of shape
    (B, order + 1), each row bit for bit the member of its atoms alone.
    The spiral member of the spec's (gamma, alpha) follows the formula in
    :func:`member_from_measure`: one member's log series goes through
    :meth:`Series.exp_zero`, a batch's through :func:`~spirallab.series.exp_rows`,
    which gives each row the same bits.  Convex kinds, whose spiral parent
    shares their (gamma, alpha), divide its a_n by n (the inverse Alexander
    map).  a_k reads only h_1..h_{k-1} (see _kernel_sums), so the map at any
    order is a bitwise prefix of the map at every higher one.  What does not
    depend on the atoms is computed once, here, and the last map made is
    kept, so a suite of one class and order makes it once.
    """
    if order < 1:
        raise InvalidParams("order must be >= 1")
    factor = np.exp(1j * spec.gamma) * math.cos(spec.gamma) * (1.0 - spec.alpha)
    index = np.arange(order)  # h_0 is never read, but gives order 2 two columns (_kernel_sums)
    n = np.maximum(index, 1)
    divisor = np.arange(1, order + 1) if spec.is_convex_kind else None

    def build(angles: np.ndarray, weights: np.ndarray) -> np.ndarray:
        h = _kernel_sums(angles, weights, index)
        s = factor * h / n
        s[..., 0] = 0.0
        u = exp_rows(s) if s.ndim > 1 else Series(s).exp_zero().coeffs
        a = np.zeros(h.shape[:-1] + (order + 1,), dtype=np.complex128)
        a[..., 1:] = u if divisor is None else u / divisor
        return a

    return build


def member_from_measure(
    measure: AtomicMeasure, spec: ClassSpec, order: int = ORDER_DEFAULT
) -> FunctionSeries:
    """Member of a class driven by an atomic measure.

    With phi = alpha + (1-alpha) h for the measure's Herglotz function h,
    the spirallike or starlike member is
    f = z exp(e^{i gamma} cos(gamma) sum c_n z^n / n) where
    c_n = (1-alpha) h_n.  A single atom at t = 0 with gamma = alpha = 0
    gives the Koebe function; two equal atoms give the two-point
    extremal.  Convex kinds take the inverse Alexander map a_n / n of
    their spiral parent's member.

    The coefficients come from :func:`member_builder`, so a member of
    order k is, bit for bit, the first k + 1 coefficients of the same
    member at any higher order: a caller builds only as far as it reads.
    """
    build = member_builder(spec, order)
    return FunctionSeries(build(np.asarray(measure.angles), np.asarray(measure.weights)))


def alexander_forward(f: FunctionSeries) -> FunctionSeries:
    """g(z) = z f'(z), i.e. b_n = n a_n."""
    n = np.arange(f.order + 1)
    return FunctionSeries(n * f.coeffs)


# ----------------------------------------------------------------------
# named extremal functions (closed-form coefficients, engine-independent)


def _koebe(order):
    return np.arange(order + 1, dtype=np.complex128)


def _two_point(order, theta1, theta2):
    # z / ((1 - e^{-i theta1} z)(1 - e^{-i theta2} z)) by its linear recurrence
    u = np.exp(-1j * float(theta1))
    v = np.exp(-1j * float(theta2))
    a = np.zeros(order + 1, dtype=np.complex128)
    if order >= 1:
        a[1] = 1.0
    for n in range(1, order):
        a[n + 1] = (u + v) * a[n] - u * v * a[n - 1]
    return a


def l_phi_coefficients(phi: float, n: np.ndarray) -> np.ndarray:
    """a_n = sin(n phi) / (n sin(phi)) of l_phi(phi) at each index of the array n, the bits
    of the same a_n in every order's build: np.sin rounds each element alone."""
    s = math.sin(float(phi))
    if abs(s) < 1e-12:
        raise InvalidParams("l_phi needs sin(phi) != 0")
    return np.sin(n * float(phi)) / (n * s)


def _l_phi(order, phi):
    a = np.zeros(order + 1, dtype=np.complex128)
    a[1:] = l_phi_coefficients(phi, np.arange(1, order + 1))
    return a


def _power_map(order, beta):
    # z (1-z)^{-beta}: ratio recurrence a_{n+1}/a_n = (n-1+beta)/n from a_1 = 1,
    # which avoids Gamma evaluation and overflow entirely.
    b = complex(beta)
    a = np.zeros(order + 1, dtype=np.complex128)
    if order >= 1:
        a[1] = 1.0
    for n in range(1, order):
        a[n + 1] = a[n] * (n - 1 + b) / n
    return a


def _c_half_extremal(order):
    a = np.arange(order + 1, dtype=np.complex128)
    a += 1.0
    a /= 2.0
    a[0] = 0.0
    return a


def _odd_sqrt(order):
    # z / sqrt(1 - z^2): odd coefficients are central binomials over 4^n
    a = np.zeros(order + 1, dtype=np.complex128)
    if order >= 1:
        a[1] = 1.0
    j = 1
    while 2 * j + 1 <= order:
        a[2 * j + 1] = a[2 * j - 1] * (2 * j - 1) / (2 * j)
        j += 1
    return a


_NAMED = {
    "koebe": _koebe,
    "two_point": _two_point,
    "l_phi": _l_phi,
    "power_map": _power_map,
    "c_half_extremal": _c_half_extremal,
    "odd_sqrt": _odd_sqrt,
}


def named(name: str, order: int = ORDER_DEFAULT, /, **params) -> FunctionSeries:
    """Named extremal function with closed-form coefficients.

    Available names: koebe; two_point(theta1, theta2); l_phi(phi);
    power_map(beta) for z (1-z)^{-beta}; c_half_extremal; odd_sqrt.
    """
    try:
        build = _NAMED[name]
    except KeyError:
        raise InvalidParams(f"unknown function name {name!r}") from None
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
            coeffs = build(order, **params)
    except TypeError as exc:
        raise InvalidParams(f"{name}: {exc}") from None
    if not np.all(np.isfinite(coeffs)):
        raise InvalidParams(f"{name}: coefficients past the double range at order {order}")
    return FunctionSeries(coeffs)


def random_measure(rng: np.random.Generator, k_atoms: int) -> AtomicMeasure:
    """Random measure with k uniform on 1..k_atoms atoms, drawn from ``rng``.

    Draws k, then weights uniform on the simplex, then angles uniform on
    [0, 2pi); reports depend on this draw order.
    """
    if not 1 <= k_atoms <= MAX_ATOMS:
        raise InvalidParams(f"k_atoms must lie in 1..{MAX_ATOMS}")
    k = int(rng.integers(1, k_atoms + 1))
    w = rng.dirichlet(np.ones(k))
    return AtomicMeasure(rng.uniform(0.0, TWO_PI, k).tolist(), (w / w.sum()).tolist())
