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

KINDS = ("spirallike", "convex_spirallike", "starlike", "convex", "c_half")

#: Kinds whose members are Alexander transforms of spiral/starlike members.
CONVEX_KINDS = ("convex_spirallike", "convex", "c_half")


class UnknownName(KeyError):
    """No named function under this identifier."""


class InvalidParams(ValueError):
    """Construction parameters outside their valid range."""


def wrap_angle(t: float) -> float:
    """Reduce to [0, 2pi); t % 2pi can round up to exactly 2pi for tiny t < 0."""
    t = float(t) % TWO_PI
    return 0.0 if t >= TWO_PI else t


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
        if any(not (0.0 <= t < TWO_PI) for t in angles):
            raise InvalidParams("atom angles must lie in [0, 2pi)")
        if any(w < 0.0 for w in weights):
            raise InvalidParams("atom weights must be nonnegative")
        if abs(sum(weights) - 1.0) > WEIGHT_TOL:
            raise InvalidParams(f"atom weights sum to {sum(weights)!r}, not 1")

    @property
    def k(self) -> int:
        return len(self.angles)

    @classmethod
    def single(cls, angle: float = 0.0) -> "AtomicMeasure":
        return cls((wrap_angle(angle),), (1.0,))

    @classmethod
    def equal(cls, angles) -> "AtomicMeasure":
        angles = tuple(wrap_angle(t) for t in angles)
        k = len(angles)
        return cls(angles, (1.0 / k,) * k)


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
        if not self.alpha < 1.0:
            raise InvalidParams("alpha must be < 1")
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


def herglotz(measure: AtomicMeasure, order: int = ORDER_DEFAULT) -> Series:
    """Positive-real-part function generated by an atomic measure.

    h_0 = 1 and h_n = 2 sum_j w_j exp(-i n t_j); a convex combination of
    half-plane kernels (1 + e^{-it} z)/(1 - e^{-it} z), so Re h > 0 on
    the disk by construction.
    """
    n = np.arange(order + 1)
    t = np.asarray(measure.angles)
    w = np.asarray(measure.weights)
    h = 2.0 * (w @ np.exp(-1j * np.outer(t, n)))
    h[0] = 1.0
    return Series(h)


def spirallike_from_measure(
    measure: AtomicMeasure, spec: ClassSpec, order: int = ORDER_DEFAULT
) -> FunctionSeries:
    """Member of a spirallike or starlike class driven by an atomic measure.

    With phi = alpha + (1-alpha) h for the measure's Herglotz function h,
    the member is f = z exp(e^{i gamma} cos(gamma) sum c_n z^n / n) where
    c_n = (1-alpha) h_n.  A single atom at t = 0 with gamma = alpha = 0
    gives the Koebe function; two equal atoms give the two-point extremal.
    """
    if spec.kind not in ("spirallike", "starlike"):
        raise InvalidParams("direct measure construction needs a spirallike or starlike spec")
    if order < 1:
        raise InvalidParams("order must be >= 1")
    h = herglotz(measure, order - 1)
    k = np.arange(order)
    s = np.zeros(order, dtype=np.complex128)
    factor = np.exp(1j * spec.gamma) * math.cos(spec.gamma) * (1.0 - spec.alpha)
    if order > 1:
        s[1:] = factor * h.coeffs[1:] / k[1:]
    u = Series(s).exp_zero()
    f = np.concatenate(([0.0], u.coeffs))
    params = {"measure": measure, "gamma": spec.gamma, "alpha": spec.alpha, "kind": spec.kind}
    return FunctionSeries(Series(f), "from-measure", params)


def member_from_measure(
    measure: AtomicMeasure, spec: ClassSpec, order: int = ORDER_DEFAULT
) -> FunctionSeries:
    """Member of any supported class; convex kinds go through the Alexander map."""
    g = spirallike_from_measure(measure, spec.spiral_parent(), order)
    if not spec.is_convex_kind:
        return g
    f = alexander_inverse(g)
    f.params.update({"kind": spec.kind, "measure": measure, "gamma": spec.gamma, "alpha": spec.alpha})
    return f


def alexander_forward(f: FunctionSeries) -> FunctionSeries:
    """g(z) = z f'(z), i.e. b_n = n a_n."""
    n = np.arange(f.order + 1)
    return FunctionSeries(
        Series(n * f.series.coeffs),
        "alexander",
        {"direction": "forward", "source": f.provenance},
    )


def alexander_inverse(g: FunctionSeries) -> FunctionSeries:
    """The f with z f'(z) = g(z), i.e. a_n = b_n / n."""
    c = np.array(g.series.coeffs)
    c[1:] = c[1:] / np.arange(1, g.order + 1)
    return FunctionSeries(
        Series(c),
        "alexander",
        {"direction": "inverse", "source": g.provenance},
    )


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


def named(name: str, order: int = ORDER_DEFAULT, **params) -> FunctionSeries:
    """Named extremal function with closed-form coefficients.

    Available names: koebe; two_point(theta1, theta2); l_phi(phi);
    power_map(beta) for z (1-z)^{-beta}; c_half_extremal; odd_sqrt.
    """
    try:
        build = _NAMED[name]
    except KeyError:
        raise UnknownName(name) from None
    try:
        coeffs = build(order, **params)
    except TypeError as exc:
        raise InvalidParams(f"{name}: {exc}") from None
    return FunctionSeries(Series(coeffs), "named", {"name": name, **params})


def sample_measure(seed: int, k_atoms: int) -> AtomicMeasure:
    """Random measure: angles uniform on [0, 2pi), weights uniform on the simplex.

    Deterministic for a fixed seed.
    """
    if k_atoms < 1:
        raise InvalidParams("k_atoms must be >= 1")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, TWO_PI, k_atoms)
    weights = rng.dirichlet(np.ones(k_atoms))
    weights = weights / weights.sum()
    return AtomicMeasure(tuple(angles), tuple(weights))


def random_measure(rng: np.random.Generator, k_atoms: int) -> AtomicMeasure:
    """Random measure with k uniform on 1..k_atoms atoms, drawn from ``rng``.

    Draws k, then weights uniform on the simplex, then angles uniform on
    [0, 2pi); reports depend on this draw order.
    """
    if k_atoms < 1:
        raise InvalidParams("k_atoms must be >= 1")
    k = int(rng.integers(1, k_atoms + 1))
    w = rng.dirichlet(np.ones(k))
    return AtomicMeasure(tuple(rng.uniform(0.0, TWO_PI, k)), tuple(w / w.sum()))


def encode_measure_spec(measure: AtomicMeasure, spec: ClassSpec) -> dict:
    """JSON document for a measure/spec pair, as consumed by the CLI."""
    return {
        "atoms": [{"t": t, "w": w} for t, w in zip(measure.angles, measure.weights)],
        "gamma": spec.gamma,
        "alpha": spec.alpha,
        "kind": spec.kind,
    }


def decode_measure_spec(doc: dict) -> tuple:
    """Inverse of :func:`encode_measure_spec`; returns (measure, spec)."""
    atoms = doc["atoms"]
    measure = AtomicMeasure(
        tuple(a["t"] for a in atoms),
        tuple(a["w"] for a in atoms),
    )
    spec = ClassSpec(doc["kind"], float(doc.get("gamma", 0.0)), float(doc.get("alpha", 0.0)))
    return measure, spec
