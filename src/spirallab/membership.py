"""Grid certification of class membership.

Each check evaluates the defining real-part expression of a class on a
polar grid and reports the worst margin (expression minus threshold).
Every expression is Re(e^{-i gamma} z g'/g) for one series g: f for the
spirallike kinds, z f' for the convex ones (1 + z f''/f' = z g'/g),
from one circle evaluation of g and one of z g' per radius.
A nonnegative margin corroborates membership at grid resolution; this is
a falsification tool, not a proof, and every report states its grid.

Evaluation happens on the truncated polynomial, so the radius ladder
must be matched to the truncation order: coefficients of the classes
studied here grow about linearly, hence the polynomial is only a faithful
stand-in for the function out to radius r when order N keeps N^2 r^N
small.  At r = 0.99 that means N of a few thousand; the checks themselves
accept any order and report what the polynomial does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import ClassSpec, InvalidParams, alexander_forward
from .inequalities import holds
from .series import DIV_FLOOR, FunctionSeries

#: A report passes when holds(-margin, TOL_MEMBER): margin >= -(TOL_MEMBER + TOL_INEQ).
TOL_MEMBER = 1e-7


class ZeroOnGrid(ArithmeticError):
    """f vanishes at a nonzero grid point; not in any class considered."""


class CriticalPointOnGrid(ArithmeticError):
    """f' vanishes at a grid point; convexity expressions are undefined there."""


@dataclass(frozen=True)
class Grid:
    """Polar evaluation grid: a radius ladder with m angles per circle."""

    radii: tuple = (0.5, 0.9, 0.99)
    m: int = 4096

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if not self.radii or any(not 0.0 < r <= 1.0 for r in self.radii):
            raise InvalidParams("field 'membership': radii must lie in (0, 1]")
        if self.m < 1:
            raise InvalidParams("field 'membership': m must be >= 1")


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of one grid check.

    margin is the exact minimum over the evaluated grid of the defining
    expression minus its threshold; worst_point is the grid point where
    it is attained.  For the Kaplan check, window holds the (theta1,
    theta2) pair of the minimizing arc and worst_point its right end.
    """

    margin: float
    grid: Grid
    worst_point: complex
    window: tuple | None = None

    @property
    def passed(self) -> bool:
        """holds(-margin, TOL_MEMBER), the verdict of the CLI's membership row too."""
        return holds(-self.margin, TOL_MEMBER)


def _point(r: float, j, m: int) -> complex:
    """Grid point j of circle r, r exp(2 pi i j / m), with the bits of the whole circle's."""
    return complex(r * np.exp(2j * np.pi * np.int64(j) / m))


def _quotients(g: FunctionSeries, grid: Grid, error: type, name: str):
    """(r, z g'(z)/g(z) on circle r) for each radius, by one eval_circle of g and one of z g'.

    z g' has coefficients k g_k, the Alexander transform of g.  A g at or
    below DIV_FLOOR * r on the circle raises error, naming name as what vanishes.
    """
    zg = alexander_forward(g)
    for r in grid.radii:
        vg = g.eval_circle(r, grid.m)
        j = np.argmin(np.abs(vg))
        if abs(vg[j]) <= DIV_FLOOR * r:
            raise error(f"{name} vanishes near z = {_point(r, j, grid.m):.6g}")
        yield r, zg.eval_circle(r, grid.m) / vg


def _margin(g: FunctionSeries, spec: ClassSpec, grid: Grid, error: type, name: str):
    """Report of min Re(e^{-i gamma} z g'/g) - alpha cos(gamma) over the grid."""
    best = math.inf
    worst = 0j
    thresh = spec.threshold()
    e = np.exp(-1j * spec.gamma)
    for r, q in _quotients(g, grid, error, name):
        vals = np.real(e * q) - thresh
        j = np.argmin(vals)
        if vals[j] < best:
            best = float(vals[j])
            worst = _point(r, j, grid.m)
    return MembershipReport(best, grid, worst)


def check_spirallike(f: FunctionSeries, spec: ClassSpec, grid: Grid = Grid()) -> MembershipReport:
    """Margin of Re(e^{-i gamma} z f'(z)/f(z)) - alpha cos(gamma) over the grid."""
    return _margin(f, spec, grid, ZeroOnGrid, "f")


def check_convex(f: FunctionSeries, spec: ClassSpec, grid: Grid = Grid()) -> MembershipReport:
    """Margin of Re(e^{-i gamma}(1 + z f''(z)/f'(z))) - alpha cos(gamma).

    1 + z f''/f' is z g'/g for g = z f', so this is the spirallike margin of g.
    """
    return _margin(alexander_forward(f), spec, grid, CriticalPointOnGrid, "f'")


def check_kaplan(f: FunctionSeries, r: float = 0.99, m: int = 4096) -> MembershipReport:
    """Close-to-convexity margin on one circle.

    Computes min over windows theta1 < theta2 <= theta1 + 2pi of the
    trapezoid integral of Re(1 + z f''/f') d theta, plus pi; the
    integrand is Re z g'/g for g = z f'.  Windows longer than a period
    only add full turns of the positive mean, so the window cap loses
    nothing.  The minimum is found in O(m) from prefix sums over a
    doubled grid.
    """
    grid = Grid((r,), m)
    _, q = next(_quotients(alexander_forward(f), grid, CriticalPointOnGrid, "f'"))
    g = np.real(q)

    h = 2.0 * np.pi / m
    g2 = np.concatenate([g, g, g[:1]])
    seg = h * (g2[:-1] + g2[1:]) / 2.0
    p = np.concatenate([[0.0], np.cumsum(seg)])  # p[j] = integral over [0, j h]

    # windows split by whether they wrap past 2 pi; starts live in [0, 2pi):
    # j2 in [1, m]: best start over j1 in [0, j2); j2 in (m, 2m): j1 in [j2-m, m)
    run_max = np.maximum.accumulate(p[:m])
    first = p[1 : m + 1] - run_max
    suffix_max = np.maximum.accumulate(p[m - 1 :: -1])[::-1]  # max of p[k..m-1]
    second = p[m + 1 : 2 * m] - suffix_max[1:]
    candidates = np.concatenate([first, second])
    jbest = int(np.argmin(candidates))
    best = float(candidates[jbest])

    if jbest < m:
        j2 = jbest + 1
        j1 = int(np.argmax(p[:j2]))
    else:
        j2 = jbest + 1
        j1 = (j2 - m) + int(np.argmax(p[j2 - m : m]))
    window = (j1 * h, j2 * h)
    worst = complex(r * np.exp(1j * (j2 * h)))
    return MembershipReport(best + math.pi, grid, worst, window)
