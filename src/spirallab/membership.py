"""Grid certification of class membership.

Each check evaluates the defining real-part expression of a class on a
polar grid and reports the worst margin (expression minus threshold).
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
from functools import cached_property

import numpy as np

from .classes import ClassSpec, InvalidParams
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

    @cached_property
    def roots(self) -> np.ndarray:
        """Read-only m-th roots of unity exp(2 pi i j / m); circle r is r * roots.

        Built once per grid, on first use, and shared by every check and
        radius on it; not a field, so equality and hash ignore it.
        """
        w = np.exp(2j * np.pi * np.arange(self.m) / self.m)
        w.setflags(write=False)
        return w


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


def check_spirallike(f: FunctionSeries, spec: ClassSpec, grid: Grid = Grid()) -> MembershipReport:
    """Margin of Re(e^{-i gamma} z f'(z)/f(z)) - alpha cos(gamma) over the grid."""
    fp = f.derivative()
    best = math.inf
    worst = 0j
    thresh = spec.threshold()
    e = np.exp(-1j * spec.gamma)
    for r in grid.radii:
        z = r * grid.roots
        vf = f.eval_circle(r, grid.m)
        if np.min(np.abs(vf)) <= DIV_FLOOR * r:
            j = int(np.argmin(np.abs(vf)))
            raise ZeroOnGrid(f"f vanishes near z = {z[j]:.6g}")
        vfp = fp.eval_circle(r, grid.m)
        vals = np.real(e * z * vfp / vf) - thresh
        j = int(np.argmin(vals))
        if vals[j] < best:
            best = float(vals[j])
            worst = complex(z[j])
    return MembershipReport(best, grid, worst)


def check_convex(f: FunctionSeries, spec: ClassSpec, grid: Grid = Grid()) -> MembershipReport:
    """Margin of Re(e^{-i gamma}(1 + z f''(z)/f'(z))) - alpha cos(gamma)."""
    fp = f.derivative()
    fpp = fp.derivative()
    best = math.inf
    worst = 0j
    thresh = spec.threshold()
    e = np.exp(-1j * spec.gamma)
    for r in grid.radii:
        z = r * grid.roots
        vfp = fp.eval_circle(r, grid.m)
        if np.min(np.abs(vfp)) <= DIV_FLOOR:
            j = int(np.argmin(np.abs(vfp)))
            raise CriticalPointOnGrid(f"f' vanishes near z = {z[j]:.6g}")
        vfpp = fpp.eval_circle(r, grid.m)
        vals = np.real(e * (1.0 + z * vfpp / vfp)) - thresh
        j = int(np.argmin(vals))
        if vals[j] < best:
            best = float(vals[j])
            worst = complex(z[j])
    return MembershipReport(best, grid, worst)


def check_kaplan(f: FunctionSeries, r: float = 0.99, m: int = 4096) -> MembershipReport:
    """Close-to-convexity margin on one circle.

    Computes min over windows theta1 < theta2 <= theta1 + 2pi of the
    trapezoid integral of Re(1 + z f''/f') d theta, plus pi.  Windows
    longer than a period only add full turns of the positive mean, so
    the window cap loses nothing.  The minimum is found in O(m) from
    prefix sums over a doubled grid.
    """
    fp = f.derivative()
    fpp = fp.derivative()
    grid = Grid((r,), m)
    z = r * grid.roots
    vfp = fp.eval_circle(r, m)
    if np.min(np.abs(vfp)) <= DIV_FLOOR:
        j = int(np.argmin(np.abs(vfp)))
        raise CriticalPointOnGrid(f"f' vanishes near z = {z[j]:.6g}")
    vfpp = fpp.eval_circle(r, m)
    g = np.real(1.0 + z * vfpp / vfp)

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
