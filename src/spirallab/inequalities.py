"""Coefficient-bound evaluators and the full bound-derivation chain.

The central functional is the successive coefficient difference
``| |a_{n+1}| - |a_n| |``.  This module evaluates every theorem bound on
that functional, checks the weighted-coefficient lemma and the third
exponentiation inequality on concrete data, and replays the derivation
that chains them:

1. recover the positive-real-part coefficients c_k of a class member f
   from the series identity f'/f - 1/z = e^{i gamma} cos(gamma)
   sum c_k z^{k-1};
2. maximize Re psi on the unit circle, psi(z) = e^{i gamma}
   sum_{k<=n} c_k z^k / k, giving M and the rotation xi0;
3. bound sum(|C_k - xi0^k|^2/k - 1/k) by -2 M alpha cos(gamma) via the
   weighted lemma, and |a_{n+1} - xi0 a_n|^2 by its exponential via the
   third exponentiation inequality;
4. conclude ||a_{n+1}| - |a_n|| <= exp(-M alpha cos(gamma)).

M is the per-function, per-index maximum from step 2; no function-uniform
constant is claimed anywhere.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classes import ClassSpec, InvalidParams, alexander_forward
from .series import FunctionSeries, Series

#: Slack below -TOL_INEQ counts as a bound violation; see holds.
TOL_INEQ = 1e-8

#: Evaluator (f, n, m) -> value of each functional; only robertson reads m.
FUNCTIONALS = {
    "two_sided_diff": lambda f, n, m=None: successive_diff(f, n),
    "one_sided_diff": lambda f, n, m=None: one_sided_diff(f, n),
    "robertson": lambda f, n, m: robertson_gap(f, n, m),
}

#: The same functionals on a getter r(k) -> |a_k|, with n and m already checked
#: (check_reads): the one formula of each, whether r gives one member's modulus as a float
#: or an array of them, one per member of a stack (see on_rows).
ON_COEFFICIENTS = {
    "two_sided_diff": lambda r, n, m=None: abs(r(n + 1) - r(n)),
    "one_sided_diff": lambda r, n, m=None: r(n + 1) - r(n),
    "robertson": lambda r, n, m: abs(n * r(n) - m * r(m)),
}


class ChainInequalityViolation(ArithmeticError):
    """A derivation-chain inequality failed beyond tolerance."""


def _exp(x: float) -> float:
    """e^x, or inf past the double range: a bound too large for any double, not an error."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def holds(lhs: float, rhs: float) -> bool:
    """The verdict rule: slack rhs - lhs >= -TOL_INEQ, so NaN and inf against inf fail."""
    return rhs - lhs >= -TOL_INEQ


def check_indices(functional: str, n: int, m: int | None) -> None:
    """Raise InvalidParams unless the indices suit functional: robertson needs n > m >= 1."""
    if functional == "robertson" and (m is None or not n > m >= 1):
        raise InvalidParams("robertson needs n > m >= 1")


def check_reads(functional: str, n: int, m: int | None, order: int) -> None:
    """Raise InvalidParams unless functional at n (and m) reads within a_0..a_order: the
    differences need n >= 1 and read a_{n+1}, robertson needs n > m >= 1 and reads a_n."""
    if functional == "robertson":
        check_indices(functional, n, m)
        last = n
    else:
        if n < 1:
            raise InvalidParams("successive difference needs n >= 1")
        last = n + 1
    if last > order:
        raise InvalidParams(f"need order >= {last}, have {order}")


def on_rows(functional: str, a: np.ndarray, ns, m: int | None = None) -> np.ndarray:
    """The functional at each n of ns for each row of the coefficient stack a, as a
    (len(ns), rows) array, with n and m already checked (check_reads).

    The moduli are ``np.hypot(re, im)``, the bits of ``abs(complex)`` (``np.abs`` is an ulp
    off in about a third of values), so each value is bit for bit the row's member's alone;
    and a read a_k of finite parts whose modulus is past the double range raises
    OverflowError, as ``abs`` does.  inf - inf reads NaN without a numpy warning, as Python
    floats do.
    """
    on = ON_COEFFICIENTS[functional]
    try:
        # np.hypot overflows only on a modulus past the double range of finite parts; without
        # an overflow there or in the functional, the values are those of the path below
        with np.errstate(over="raise", invalid="ignore"):
            moduli = np.hypot(a.real, a.imag).T
            return np.array([on(moduli.__getitem__, n, m) for n in ns])
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", invalid="ignore"):
        moduli = np.hypot(a.real, a.imag).T
        # the k whose a_k, in some row, is of finite parts and a modulus past the double range
        past = (np.isinf(moduli) & np.isfinite(a.T)).any(axis=1)

        def r(k: int) -> np.ndarray:
            if past[k]:
                raise OverflowError("absolute value too large")
            return moduli[k]

        return np.array([on(r, n, m) for n in ns])


def successive_diff(f: FunctionSeries, n: int) -> float:
    """The two-sided functional | |a_{n+1}| - |a_n| |."""
    return abs(one_sided_diff(f, n))


def one_sided_diff(f: FunctionSeries, n: int) -> float:
    """The signed difference |a_{n+1}| - |a_n|."""
    check_reads("one_sided_diff", n, None, f.order)
    item = f.coeffs.item
    return ON_COEFFICIENTS["one_sided_diff"](lambda k: abs(item(k)), n)


def gamma_ratio(alpha: float, n: int) -> float:
    """Gamma(1 - 2 alpha + n) / (Gamma(1 - 2 alpha) Gamma(n + 1)).

    Computed by the telescoping product of (k - 2 alpha)/k, k = 1..n, taken
    in that order, never by evaluating Gamma itself, so it loses no more
    than O(n ulp) relative accuracy.
    """
    return float(_gamma_ratios(alpha, n)[-1])


def _gamma_ratios(alpha: float, n: int) -> np.ndarray:
    """gamma_ratio(alpha, j) for j = 0..n, the running products of one cumprod."""
    k = np.arange(1.0, n + 1)
    with np.errstate(over="ignore"):  # a ratio past the double range is inf
        return np.cumprod(np.append(1.0, (k - 2.0 * alpha) / k))


class Theorem(NamedTuple):
    """One row of THEOREMS."""

    functional: str  # the FUNCTIONALS key of the functional it bounds
    admits: Callable[[ClassSpec], bool]  # true for the classes it is stated for
    rhs: Callable[[int, int | None, float | None], float]  # class-wide rhs(n, m, alpha)
    # per-function rhs(f, spec, n) when there is one; rhs is then class-wide at alpha = 0 only
    member: Callable[[FunctionSeries, ClassSpec, int], float] | None = None


def _gamma_ratio_rhs(n: int, m: int | None, alpha: float | None) -> float:
    """thm_C's rhs: the Gamma ratio at alpha, which the caller must give."""
    if alpha is None:
        raise InvalidParams("thm_C bound needs alpha")
    return gamma_ratio(alpha, n)


#: Every theorem by id.  class_bound gives each class the first row that
#: admits it and bounds the searched functional, so the row order fixes
#: each class's theorem.
THEOREMS = {
    "thm_c_half": Theorem("one_sided_diff", lambda s: s.kind == "c_half", lambda n, m, a: 1.0),
    "thm_B": Theorem(
        "one_sided_diff",
        lambda s: s.is_convex_kind and s.alpha >= 0.0 and s.gamma == 0.0,
        lambda n, m, a: 1.0 / (n + 1),
    ),
    "cor_convex_gamma": Theorem(
        "one_sided_diff",
        lambda s: s.is_convex_kind and s.alpha >= 0.0,
        lambda n, m, a: 1.0 / (n + 1),
        lambda f, spec, n: chain_trace(f, spec, n).final_bound / (n + 1),
    ),
    "thm_C": Theorem(
        "two_sided_diff", lambda s: s.kind == "starlike" and s.alpha < 0.0, _gamma_ratio_rhs
    ),
    "thm_A": Theorem(
        "two_sided_diff", lambda s: s.kind == "starlike" and s.alpha >= 0.0, lambda n, m, a: 1.0
    ),
    "cor_spiral": Theorem(
        "two_sided_diff", lambda s: not s.is_convex_kind and s.alpha >= 0.0, lambda n, m, a: 1.0
    ),
    "thm_main": Theorem(
        "two_sided_diff",
        lambda s: not s.is_convex_kind,
        lambda n, m, a: 1.0,
        lambda f, spec, n: chain_trace(f, spec, n).final_bound,
    ),
    "thm_robertson": Theorem(
        "robertson", lambda s: s.kind == "c_half", lambda n, m, a: (n - m) * (n + m + 1) / 2.0
    ),
}


def bound_row(theorem_id: str, n: int, m: int | None = None) -> Theorem:
    """The theorem's THEOREMS row, once n (and m) lie in the range of its bounds, class-wide
    and per-function: every theorem needs n >= 2, and thm_robertson n > m >= 1 (check_indices).
    """
    row = THEOREMS.get(theorem_id)
    if row is None:
        raise InvalidParams(f"unknown theorem id {theorem_id!r}")
    check_indices(row.functional, n, m)
    if n < 2:
        raise InvalidParams(f"{theorem_id} bound needs n >= 2")
    return row


def bound_rhs(
    theorem_id: str, n: int, m: int | None = None, *, alpha: float | None = None
) -> float:
    """Class-wide right-hand side of the theorem's bound_row at index n (and m):
    bound_rhs_walk(theorem_id, m, alpha=alpha)(n)."""
    return bound_rhs_walk(theorem_id, m, alpha=alpha)(n)


def bound_rhs_walk(
    theorem_id: str, m: int | None = None, *, alpha: float | None = None
) -> Callable[[int], float]:
    """The class-wide rhs of the theorem's bound_row as a function of n, for a caller that
    reads one n or a range of them.  Each call checks n (and m) by bound_row, and raises
    InvalidParams for a per-function theorem at alpha != 0 and for thm_C without alpha.
    thm_C's Gamma ratios are read off one running product, taken again to twice the length
    when an n past its end is read, so a range up to N costs O(N) in all where a gamma_ratio
    per n costs O(N^2); each is gamma_ratio(alpha, n), bit for bit.
    """
    ratios = ()

    def rhs(n: int) -> float:
        nonlocal ratios
        row = bound_row(theorem_id, n, m)
        if row.member is not None and alpha != 0.0:
            raise InvalidParams(f"{theorem_id} at alpha != 0 is per-function; see Theorem.member")
        if row.rhs is not _gamma_ratio_rhs or alpha is None:
            return row.rhs(n, m, alpha)  # thm_C without alpha raises here
        if n >= len(ratios):
            ratios = _gamma_ratios(alpha, max(n, 2 * len(ratios)))
        return float(ratios[n])

    return rhs


def class_bound(spec: ClassSpec, functional: str, n: int, m: int | None = None) -> tuple | None:
    """(theorem_id, rhs): the first THEOREMS row that admits spec and bounds functional.

    rhs is that row's class-wide bound at n (and m); None when no row fits.
    A class with alpha > 0 nests inside its alpha = 0 parent and gets the
    parent's constant; only thm_C reads alpha.
    """
    for theorem, row in THEOREMS.items():
        if row.admits(spec) and row.functional == functional:
            return theorem, bound_row(theorem, n, m).rhs(n, m, spec.alpha)
    return None


def _newton_peak(d, k, k2, ik, theta: float, value: float, h: float):
    """(value, angle) of Newton steps on Re sum d_k e^{ik t} from the grid sample (theta, value).

    Re psi' = -sum k Im(e_k) and Re psi'' = -sum k^2 Re(e_k) with
    e_k = d_k e^{ik t}; ``k2`` and ``ik`` hold k^2 and ik.  Steps stay within
    h of theta.  The sample is kept only when refinement falls below it,
    which covers a start whose curvature is >= 0; a tie keeps Newton's
    point (M is the same), so a flat maximum reports its stationary angle,
    not the sample's.  The step arithmetic runs on Python floats and each
    sum is one ``ndarray.dot``, the cblas call that ``@`` makes, so the bits
    are those of numpy scalars at less dispatch.
    """
    t, lo, hi = theta, theta - h, theta + h
    for _ in range(20):
        e = d * np.exp(ik * t)
        curve = float(e.real.dot(k2))
        if curve <= 0.0:
            break
        step = float(e.imag.dot(k)) / curve
        t = min(max(t - step, lo), hi)
        if abs(step) < 1e-15:
            break
    refined = d.dot(np.exp(ik * t)).real.item()
    return (refined, t) if refined >= value else (value, theta)


def psi_max(c, n: int, gamma: float):
    """Maximum of Re(e^{i gamma} sum_{k<=n} c_k z^k / k) on |z| = 1.

    ``c`` is the sequence c_1..c_n (index 0 holds c_1).  An inverse real
    FFT samples Re psi at 16(n + 1) angles, h = 2 pi / (16(n + 1)) apart,
    and Newton steps from the best sample, kept within h of it, make the
    angle stationary.  Since |Re psi''| <= S = sum k^2 |d_k| (d_k =
    e^{i gamma} c_k / k), no cell between two samples rises more than
    h^2 S / 8 above its higher end; so every other sample within that
    reach of the refined value is refined the same way, and the largest
    value wins.  Ties go to the first basin found, the best sample's
    (the smallest angle among equal samples), then the others by
    increasing angle: a later basin wins only when strictly larger.

    Guaranteed: every cell that could hold a value above the returned M
    is searched by Newton from one of its ends, and M is at least every
    sample.  Not guaranteed: that Newton reaches the top of that cell (a
    start whose curvature is >= 0 keeps its sample value), so M is a
    refined estimate from below, not a certified upper bound.  Returns
    (M, maximizing angle in [0, 2 pi)).
    """
    c = np.asarray(c, dtype=np.complex128)
    if n < 1:
        raise InvalidParams("psi_max needs n >= 1")
    if c.size < n:
        raise InvalidParams(f"need {n} coefficients, have {c.size}")
    k = np.arange(1.0, n + 1)
    d = np.exp(1j * gamma) * c[:n] / k
    m = 16 * (n + 1)
    half = np.zeros(m // 2 + 1, dtype=np.complex128)
    half[1 : n + 1] = d
    vals = np.fft.irfft(half, m)
    vals *= m / 2
    h = 2.0 * np.pi / m
    k2, ik = k * k, 1j * k
    j = int(vals.argmax())
    best, theta = _newton_peak(d, k, k2, ik, j * h, vals.item(j), h)
    reach = h * h / 8.0 * float(k2.dot(np.abs(d)))
    for i in (vals > best - reach).nonzero()[0].tolist():
        if i != j:
            value, angle = _newton_peak(d, k, k2, ik, i * h, vals.item(i), h)
            if value > best:
                best, theta = value, angle
    return best, theta % (2.0 * np.pi)


def lemma31_check(c, lam, gamma: float, alpha: float, M: float):
    """Both sides of the weighted-coefficient inequality.

    Returns (cos(gamma) sum lam_k |c_k|^2, 2 M (1-alpha)), the lhs <= rhs
    pair, like :func:`milin_third`.  ``c`` holds c_1.. and ``lam`` the
    matching nonnegative weights; the caller certifies Re of the
    generating function exceeds alpha and supplies M as the circle
    maximum of the weighted Re psi.
    """
    c = np.asarray(c, dtype=np.complex128)
    lam = np.asarray(lam, dtype=float)
    if lam.size > c.size:
        raise InvalidParams(f"need {lam.size} coefficients, have {c.size}")
    if np.any(lam < 0):
        raise InvalidParams("weights must be nonnegative")
    lhs = math.cos(gamma) * float(np.sum(lam * np.abs(c[: lam.size]) ** 2))
    return lhs, 2.0 * M * (1.0 - alpha)


def milin_third(alpha_seq, n: int):
    """Both sides of the third exponentiation inequality at index n.

    With sum beta_n z^n = exp(sum alpha_k z^k), returns
    (|beta_n|^2, exp(sum_{k<=n}(k |alpha_k|^2 - 1/k))).  ``alpha_seq``
    holds alpha_1.. (index 0 is alpha_1).
    """
    arr = np.asarray(alpha_seq, dtype=np.complex128)
    if n < 1:
        raise InvalidParams("milin_third needs n >= 1")
    if arr.size < n:
        raise InvalidParams(f"need {n} coefficients, have {arr.size}")
    s = np.zeros(n + 1, dtype=np.complex128)
    s[1:] = arr[:n]
    beta_n = Series(s).exp_zero().coeffs[n]
    k = np.arange(1, n + 1)
    exponent = float(np.sum(k * np.abs(arr[:n]) ** 2 - 1.0 / k))
    return abs(beta_n) ** 2, math.exp(exponent)


@dataclass(frozen=True)
class ProofTrace:
    """Every quantity in the derivation chain for one (f, n), as proof_trace checked it."""

    n: int
    gamma: float
    alpha: float
    c: tuple            # c_1..c_n recovered from f
    C: tuple            # C_k = e^{i gamma} cos(gamma) c_k
    M: float
    max_angle: float
    xi0: complex
    milin_exponent: float
    beta_bound: float
    final_bound: float


def recover_c(f: FunctionSeries, gamma: float, count: int) -> np.ndarray:
    """c_1..c_count from f via f'/f - 1/z = e^{i gamma} cos(gamma) sum c_k z^{k-1}.

    Works on u = f/z, whose log-derivative u'/u equals the left side, so
    no negative powers ever appear.
    """
    cos_g = math.cos(gamma)
    if cos_g < 1e-9:
        raise InvalidParams(f"cos(gamma) = {cos_g:.3e}")
    if count > f.order - 1:
        raise InvalidParams(f"need order >= {count + 1}, have {f.order}")
    # Quotient coefficient k reads only coefficients 0..k of each operand.
    u = f.coeffs[1 : count + 2]
    q = Series(np.arange(1, count + 1) * u[1:]).div(Series(u))  # u'/u
    return q.coeffs[:count] / (np.exp(1j * gamma) * cos_g)


def proof_trace(f: FunctionSeries, gamma: float, alpha: float, n: int) -> ProofTrace:
    """Replay the derivation chain on f at index n, judging each link as :func:`holds` does.

    In order: |xi0| = 1 to 1e-12, milin_exponent <= -2 M alpha cos(gamma),
    beta_bound^2 <= exp(milin_exponent) and ||a_{n+1}| - |a_n|| <= final_bound
    = exp(-M alpha cos gamma); the first to fail, or to read NaN, raises
    ChainInequalityViolation.  An exponential past the double range is inf.
    """
    if n < 1:
        raise InvalidParams("proof trace needs n >= 1")
    c = recover_c(f, gamma, n)
    M, angle = psi_max(c, n, gamma)
    xi0 = complex(np.exp(-1j * angle))
    k = np.arange(1, n + 1)
    big_c = np.exp(1j * gamma) * math.cos(gamma) * c
    exponent = float((np.square(np.abs(big_c - xi0**k)) / k - 1.0 / k).sum())
    beta = abs(f.a(n + 1) - xi0 * f.a(n))
    final = _exp(-M * alpha * math.cos(gamma))
    if not abs(abs(xi0) - 1.0) <= 1e-12:
        raise ChainInequalityViolation(f"|xi0| = {abs(xi0)!r} is not 1")
    lemma_cap = -2.0 * M * alpha * math.cos(gamma)
    if not holds(exponent, lemma_cap):
        raise ChainInequalityViolation(f"milin exponent {exponent:.6e} exceeds {lemma_cap:.6e}")
    # a product, not **2, which raises past the double range
    if not holds(beta * beta, _exp(exponent)):
        raise ChainInequalityViolation(f"beta bound {beta:.6e} breaks the exponentiation step")
    diff = successive_diff(f, n)
    if not holds(diff, final):
        raise ChainInequalityViolation(
            f"successive difference {diff:.6e} exceeds final bound {final:.6e}"
        )
    return ProofTrace(
        n=n,
        gamma=gamma,
        alpha=alpha,
        c=tuple(c.tolist()),
        C=tuple(big_c.tolist()),
        M=M,
        max_angle=angle,
        xi0=xi0,
        milin_exponent=exponent,
        beta_bound=beta,
        final_bound=final,
    )


def chain_trace(f: FunctionSeries, spec: ClassSpec, n: int) -> ProofTrace:
    """The proof trace behind f's per-function rows in spec at n: f's own, or for a convex
    kind that of z f'(z), its spiral parent's member."""
    g = alexander_forward(f) if spec.is_convex_kind else f
    return proof_trace(g, spec.gamma, spec.alpha, n)


def robertson_gap(f: FunctionSeries, n: int, m: int) -> float:
    """Robertson's functional | n|a_n| - m|a_m| |, bounded by (n-m)(n+m+1)/2."""
    check_reads("robertson", n, m, f.order)
    return ON_COEFFICIENTS["robertson"](lambda k: abs(f.a(k)), n, m)
