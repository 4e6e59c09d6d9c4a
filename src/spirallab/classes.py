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

import math
from dataclasses import dataclass

import numpy as np

from .series import ORDER_DEFAULT, FunctionSeries, Series

TWO_PI = 2.0 * math.pi

#: Atom weights must sum to one within this tolerance.
WEIGHT_TOL = 1e-12

#: Most atoms a sampled or searched measure may have.
MAX_ATOMS = 16

KINDS = ("spirallike", "convex_spirallike", "starlike", "convex", "c_half")

#: Kinds whose members are Alexander transforms of spiral/starlike members.
CONVEX_KINDS = ("convex_spirallike", "convex", "c_half")


class InvalidParams(ValueError):
    """Input outside its valid range: the base of every input error the package raises."""


class UnknownName(InvalidParams):
    """No named function under this identifier."""


def check_atoms(angles: np.ndarray, weights: np.ndarray) -> None:
    """Raise InvalidParams unless the atoms form a probability measure on [0, 2pi).

    Every angle must lie in [0, 2pi) and every weight must be nonnegative
    (NaN does neither), and the weights must sum to 1 within WEIGHT_TOL.
    """
    if not (angles.min() >= 0.0 and angles.max() < TWO_PI):
        raise InvalidParams("atom angles must lie in [0, 2pi)")
    if not weights.min() >= 0.0:
        raise InvalidParams("atom weights must be nonnegative")
    total = float(weights.sum())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise InvalidParams(f"atom weights sum to {total!r}, not 1")


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many boundary atoms: angles in [0, 2pi) with weights summing to 1."""

    angles: tuple
    weights: tuple

    def __post_init__(self):
        angles = tuple(float(t) for t in self.angles)
        weights = tuple(float(w) for w in self.weights)
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

    def spiral_parent(self) -> "ClassSpec":
        """The spiral/starlike class whose Alexander transform is this class."""
        if self.kind == "convex_spirallike":
            return ClassSpec("spirallike", self.gamma, self.alpha)
        if self.kind == "convex":
            return ClassSpec("starlike", 0.0, self.alpha)
        if self.kind == "c_half":
            return ClassSpec("starlike", 0.0, -0.5)
        return self

    def threshold(self) -> float:
        """The right-hand side alpha*cos(gamma) of the defining condition."""
        return self.alpha * math.cos(self.gamma)


def _kernel_sums(angles: np.ndarray, weights: np.ndarray, index: np.ndarray) -> np.ndarray:
    """2 sum_j w_j exp(-i n t_j) for each n in ``index``."""
    return 2.0 * (weights @ np.exp(-1j * (angles[:, None] * index)))


def herglotz(measure: AtomicMeasure, order: int = ORDER_DEFAULT) -> Series:
    """Positive-real-part function generated by an atomic measure.

    h_0 = 1 and h_n = 2 sum_j w_j exp(-i n t_j); a convex combination of
    half-plane kernels (1 + e^{-it} z)/(1 - e^{-it} z), so Re h > 0 on
    the disk by construction.
    """
    h = _kernel_sums(np.asarray(measure.angles), np.asarray(measure.weights), np.arange(order + 1))
    h[0] = 1.0
    return Series(h)


def member_builder(spec: ClassSpec, order: int = ORDER_DEFAULT, upto: int | None = None):
    """Coefficient map of the members of one class, for many measures.

    Returns ``build(angles, weights) -> a_0..a_width``, width =
    min(max(upto, 1), order) (order when ``upto`` is None), for float
    arrays of atoms that :func:`check_atoms` accepts; it does not check
    them again.  The spiral parent's member follows the formula in
    :func:`member_from_measure`, and convex kinds divide a_n by n (the
    inverse Alexander map).  What does not depend on the atoms is
    computed once, here.
    """
    if order < 1:
        raise InvalidParams("order must be >= 1")
    parent = spec.spiral_parent()
    factor = np.exp(1j * parent.gamma) * math.cos(parent.gamma) * (1.0 - parent.alpha)
    index = np.arange(order)
    width = order if upto is None else min(max(upto, 1), order)
    n = index[1:width]
    divisor = np.arange(1, width + 1) if spec.is_convex_kind else None

    def build(angles: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # h keeps its full width even under upto: the product w @ E in
        # _kernel_sums rounds a column differently when the matrix is narrower
        h = _kernel_sums(angles, weights, index)
        s = np.zeros(width, dtype=np.complex128)
        s[1:] = factor * h[1:width] / n
        # exp coefficient k reads only coefficients 0..k of its argument
        u = Series(s).exp_zero().coeffs
        a = np.zeros(width + 1, dtype=np.complex128)
        a[1:] = u if divisor is None else u / divisor
        return a

    return build


def member_from_measure(
    measure: AtomicMeasure,
    spec: ClassSpec,
    order: int = ORDER_DEFAULT,
    *,
    upto: int | None = None,
) -> FunctionSeries:
    """Member of a class driven by an atomic measure.

    With phi = alpha + (1-alpha) h for the measure's Herglotz function h,
    the spirallike or starlike member is
    f = z exp(e^{i gamma} cos(gamma) sum c_n z^n / n) where
    c_n = (1-alpha) h_n.  A single atom at t = 0 with gamma = alpha = 0
    gives the Koebe function; two equal atoms give the two-point
    extremal.  Convex kinds take the inverse Alexander map a_n / n of
    their spiral parent's member.

    ``upto`` (clamped to 1..order) stops the exponential at a_upto and
    returns a member of that order, for callers that read no further;
    its coefficients are bit-for-bit those of the order-``order`` member.
    The coefficients come from :func:`member_builder`.
    """
    build = member_builder(spec, order, upto)
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


def _l_phi(order, phi):
    s = math.sin(float(phi))
    if abs(s) < 1e-12:
        raise InvalidParams("l_phi needs sin(phi) != 0")
    n = np.arange(1, order + 1)
    a = np.zeros(order + 1, dtype=np.complex128)
    a[1:] = np.sin(n * float(phi)) / (n * s)
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
        raise UnknownName(f"unknown function name {name!r}") from None
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
    return AtomicMeasure(tuple(rng.uniform(0.0, TWO_PI, k)), tuple(w / w.sum()))
