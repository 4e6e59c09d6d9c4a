import json
import math

import numpy as np
import pytest

from spirallab import (
    AtomicMeasure,
    ClassSpec,
    CriticalPointOnGrid,
    FunctionSeries,
    Grid,
    MembershipReport,
    TOL_INEQ,
    TOL_MEMBER,
    Series,
    ZeroOnGrid,
    alexander_forward,
    check_convex,
    check_kaplan,
    check_spirallike,
    member_from_measure,
    named,
)
from spirallab.cli import EXIT_OK, EXIT_VIOLATION, _Block, _write_blocks
from oracles import circle, fixed_measure, spiral_margin_exact

# Truncated polynomials only track their function out to a radius set by
# the order: near-linear coefficient growth needs N^2 r^N small, so the
# r = 0.99 rung of the ladder calls for a few thousand coefficients.
ORDER_LADDER = 4096
LADDER = Grid((0.5, 0.9, 0.99), 4096)


def identity_map(order=8):
    c = np.zeros(order + 1)
    c[1] = 1.0
    return FunctionSeries(c)


def test_koebe_is_starlike_on_ladder():
    f = named("koebe", ORDER_LADDER)
    report = check_spirallike(f, ClassSpec("starlike"), LADDER)
    # true margin at the outermost rung is (1-r)/(1+r)
    assert report.margin > 0
    assert report.margin == pytest.approx(0.01 / 1.99, abs=1e-6)
    assert report.passed


@pytest.mark.parametrize(
    "margin, passed",
    [(-1.05e-7, True), (-(TOL_MEMBER + TOL_INEQ), True), (-1.2e-7, False), (math.nan, False)],
)
def test_report_verdict_is_the_cli_membership_row(tmp_path, margin, passed):
    # one rule for both: margin >= -(TOL_MEMBER + TOL_INEQ), and NaN fails
    assert MembershipReport(margin, Grid(), 0j).passed == passed
    cell = ("membership", None, None, -margin, TOL_MEMBER)
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        block = _Block("f", None, ClassSpec("starlike"), [cell])
        code = _write_blocks({"format": fmt, "out": str(out)}, [block])
        assert code == (EXIT_OK if passed else EXIT_VIOLATION)
        if fmt == "json":
            assert json.loads(out.read_text())[0]["pass"] == passed
        else:
            assert out.read_text().splitlines()[1].endswith(",true" if passed else ",false")


def test_identity_map_margin_is_exact():
    spec = ClassSpec("spirallike", gamma=0.5, alpha=0.4)
    report = check_spirallike(identity_map(), spec, Grid((0.5,), 64))
    expect = (1 - spec.alpha) * math.cos(spec.gamma)
    assert report.margin == pytest.approx(expect, abs=1e-12)


def test_koebe_fails_high_order_starlikeness():
    f = named("koebe", ORDER_LADDER)
    report = check_spirallike(f, ClassSpec("starlike", alpha=0.9), LADDER)
    assert report.margin < 0
    assert not report.passed
    # the violation shows up toward z = -r where Re((1+z)/(1-z)) -> 0
    assert report.worst_point.real < 0


def test_c_half_extremal_membership():
    f = named("c_half_extremal", ORDER_LADDER)
    report = check_convex(f, ClassSpec("c_half", alpha=-0.5), Grid((0.99,), 4096))
    assert report.margin > 0
    # Re((1+2z)/(1-z)) + 1/2 has minimum near z = -r
    expect = (1 - 2 * 0.99) / (1 + 0.99) + 0.5
    assert report.margin == pytest.approx(expect, abs=1e-6)


def test_half_plane_map_is_convex():
    f = named("power_map", ORDER_LADDER, beta=1.0)  # z/(1-z)
    report = check_convex(f, ClassSpec("convex"), LADDER)
    assert report.margin > 0


def test_koebe_is_not_convex():
    f = named("koebe", 512)
    report = check_convex(f, ClassSpec("convex"), Grid((0.5,), 1024))
    assert report.margin < 0


def test_zero_on_grid_raises():
    # f = z - 2 z^2 vanishes at z = 1/2, which the grid hits at theta = 0
    f = FunctionSeries([0, 1, -2])
    with pytest.raises(ZeroOnGrid):
        check_spirallike(f, ClassSpec("starlike"), Grid((0.5,), 8))


def test_critical_point_on_grid_raises():
    # f' = 1 - 2z vanishes at z = 1/2
    f = FunctionSeries([0, 1, -1])
    with pytest.raises(CriticalPointOnGrid):
        check_convex(f, ClassSpec("convex"), Grid((0.5,), 8))


def test_margin_monotone_under_grid_refinement():
    f = named("koebe", 512)
    spec = ClassSpec("starlike")
    m = 512
    coarse = check_spirallike(f, spec, Grid((0.9,), m)).margin
    fine = check_spirallike(f, spec, Grid((0.9,), 2 * m)).margin
    assert fine <= coarse + 1e-6


def test_sampled_members_pass_on_ladder():
    rng = np.random.default_rng(11)
    for trial in range(12):
        k = int(rng.integers(1, 9))
        measure = fixed_measure(100 + trial, k)
        gamma = float(rng.uniform(-1.4, 1.4))
        alpha = float(rng.uniform(0.0, 0.95))
        spec = ClassSpec("spirallike", gamma=gamma, alpha=alpha)
        f = member_from_measure(measure, spec, ORDER_LADDER)
        report = check_spirallike(f, spec, LADDER)
        assert report.margin >= -TOL_MEMBER, (trial, report.margin)


def derivatives(f):
    """f' and f'' of a truncated series, termwise from its coefficients."""
    k = np.arange(f.order + 1)
    return Series(k[1:] * f.coeffs[1:]), Series(k[2:] * (k[2:] - 1) * f.coeffs[2:])


def brute_force_values(f, spec, r, m):
    """The defining expression minus its threshold at the points of oracles.circle(r, m)."""
    z = circle(r, m)
    fp, fpp = derivatives(f)
    vf, vfp, vfpp = (np.polyval(s.coeffs[::-1], z) for s in (f, fp, fpp))
    q = 1.0 + z * vfpp / vfp if spec.is_convex_kind else z * vfp / vf
    return z, np.real(np.exp(-1j * spec.gamma) * q) - spec.threshold()


@pytest.mark.parametrize("kind", ["spirallike", "convex_spirallike"])
def test_worst_point_is_the_brute_force_minimum_on_the_circle(kind):
    grid = Grid((0.5, 0.9), 600)  # m not a power of 2, so the division by m rounds
    spec = ClassSpec(kind, gamma=0.3, alpha=0.25)
    check = check_convex if spec.is_convex_kind else check_spirallike
    for seed in (7, 8, 9):
        f = member_from_measure(fixed_measure(seed, 4), spec, 256)
        report = check(f, spec, grid)
        best, worst = math.inf, None
        for r in grid.radii:
            z, vals = brute_force_values(f, spec, r, grid.m)
            j = int(np.argmin(vals))
            if vals[j] < best:
                best, worst = vals[j], z[j]
        # the very grid point, bit for bit, and its value up to the two evaluations' rounding
        assert report.worst_point == worst
        assert report.margin == pytest.approx(best, abs=1e-12)
    twin = Grid((0.5, 0.9), 600)
    assert grid == twin and hash(grid) == hash(twin)


@pytest.mark.parametrize(
    "spec",
    [
        ClassSpec("convex_spirallike", gamma=0.3, alpha=0.25),
        ClassSpec("convex", alpha=0.5),
        ClassSpec("c_half", alpha=-0.5),
    ],
    ids=lambda spec: spec.kind,
)
def test_convex_check_is_the_spiral_check_of_the_alexander_transform(spec):
    grid = Grid((0.5, 0.9, 0.99), 1000)
    for seed in (1, 2):
        f = member_from_measure(fixed_measure(seed, 3), spec, 512)
        convex = check_convex(f, spec, grid)
        spiral = check_spirallike(alexander_forward(f), spec.spiral_parent(), grid)
        assert convex.margin == spiral.margin
        assert convex.worst_point == spiral.worst_point


@pytest.mark.parametrize("kind", ["spirallike", "convex_spirallike"])
def test_margin_matches_the_exact_margin_of_the_measure(kind):
    # order 4096 leaves a truncation tail far below the bound at r = 0.99
    spec = ClassSpec(kind, gamma=0.3, alpha=0.25)
    check = check_convex if spec.is_convex_kind else check_spirallike
    grid = Grid((0.5, 0.9, 0.99), 65536)
    for seed in (4, 7919):
        measure = fixed_measure(seed, 4)
        report = check(member_from_measure(measure, spec, ORDER_LADDER), spec, grid)
        assert abs(report.margin - spiral_margin_exact(measure, spec, grid)) <= 1e-10


# ----------------------------------------------------------------------
# Kaplan windows


def test_kaplan_convex_function_has_full_margin():
    f = named("power_map", 1024, beta=1.0)
    report = check_kaplan(f, r=0.9, m=2048)
    # positive integrand means every window integral is positive
    assert report.margin >= math.pi


def test_kaplan_c_half_extremal():
    f = named("c_half_extremal", ORDER_LADDER)
    report = check_kaplan(f, r=0.99, m=4096)
    assert report.margin > 0


def test_kaplan_koebe_close_to_convex():
    f = named("koebe", ORDER_LADDER)
    report = check_kaplan(f, r=0.99, m=4096)
    assert report.margin > 0


def test_kaplan_window_is_recorded():
    f = named("koebe", 1024)
    report = check_kaplan(f, r=0.9, m=512)
    t1, t2 = report.window
    assert 0 <= t1 < 2 * math.pi
    assert t1 < t2 <= t1 + 2 * math.pi + 1e-12


def test_kaplan_matches_brute_force_window_minimum():
    f = named("koebe", 256)
    r, m = 0.8, 64
    report = check_kaplan(f, r=r, m=m)

    fp, fpp = derivatives(f)
    z = r * np.exp(2j * np.pi * np.arange(m) / m)
    g = np.real(1.0 + z * fpp.eval_circle(r, m) / fp.eval_circle(r, m))
    h = 2 * np.pi / m
    best = math.inf
    for j1 in range(m):
        acc = 0.0
        for step in range(1, m + 1):
            a = g[(j1 + step - 1) % m]
            b = g[(j1 + step) % m]
            acc += h * (a + b) / 2
            best = min(best, acc)
    assert report.margin == pytest.approx(best + math.pi, abs=1e-10)


def test_kaplan_holds_for_sampled_c_half_members():
    # pointwise integrand above -1/2 forces every window above -pi
    for seed in (1, 2, 3, 4, 5):
        measure = fixed_measure(seed, 4)
        f = member_from_measure(measure, ClassSpec("c_half", alpha=-0.5), 1024)
        fp, fpp = derivatives(f)
        r, m = 0.9, 2048
        z = r * np.exp(2j * np.pi * np.arange(m) / m)
        g = np.real(1.0 + z * fpp.eval_circle(r, m) / fp.eval_circle(r, m))
        assert np.min(g) > -0.5 - 1e-9
        report = check_kaplan(f, r=r, m=m)
        assert report.margin > 0
