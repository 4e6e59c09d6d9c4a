"""Independent reference implementations for the tests.

The package runs none of these.  Each is the plain textbook route to a
quantity, so a test can check the package's own routine against it.
"""

import math

import numpy as np

from spirallab import AtomicMeasure, FunctionSeries, SearchProblem, SearchResult, Series
from spirallab.extremal import (
    _STEP_ANGLE, _STEP_WEIGHT, SPREAD_TOL, _atoms_from_vector, _objective
)


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


def _dot(x: np.ndarray, y: np.ndarray, chunk: int | None) -> complex:
    """np.dot(x, y); with chunk, the dots of its chunk-long pieces added first to last."""
    if chunk is None:
        return np.dot(x, y)
    pieces = [np.dot(x[i : i + chunk], y[i : i + chunk]) for i in range(0, len(x), chunk)]
    return sum(pieces[1:], pieces[0])


def exp_zero_sliced(s: Series, chunk: int | None = None) -> Series:
    """exp of a zero-constant series by k b_k = sum_{j<=k} j a_j b_{k-j}, reading b reversed by slicing.

    The same products summed in the same order as ``Series.exp_zero``,
    which keeps b in a reversed buffer instead, so the two agree bit for bit.
    With chunk, each sum adds dots of at most chunk terms, as the package
    does past ``series.DOT_MAX`` terms.
    """
    n = s.order
    ka = np.arange(n + 1) * s.coeffs
    b = np.zeros(n + 1, dtype=np.complex128)
    b[0] = 1.0
    for k in range(1, n + 1):
        b[k] = _dot(ka[1 : k + 1], b[k - 1 :: -1][:k], chunk) / k
    return Series(b)


def div_sliced(a: Series, b: Series, chunk: int | None = None) -> Series:
    """Quotient by q_k = (a_k - sum_{1<=j<=k} b_j q_{k-j}) / b_0, reading q reversed by slicing.

    Bit for bit what ``Series.div`` computes from its reversed buffer; chunk
    as in :func:`exp_zero_sliced`.
    """
    n = min(a.order, b.order)
    ac, bc = a.coeffs, b.coeffs
    q = np.zeros(n + 1, dtype=np.complex128)
    q[0] = ac[0] / bc[0]
    for k in range(1, n + 1):
        q[k] = (ac[k] - _dot(bc[1 : k + 1], q[k - 1 :: -1][:k], chunk)) / bc[0]
    return Series(q)


def _newton_peak_reference(d, k, k2, ik, theta, value, h):
    """Newton steps on Re sum d_k e^{ik t} from the sample (theta, value), on numpy scalars."""
    t = theta
    for _ in range(20):
        e = d * np.exp(ik * t)
        curve = e.real @ k2
        if curve <= 0.0:
            break
        step = (e.imag @ k) / curve
        t = min(max(t - step, theta - h), theta + h)
        if abs(step) < 1e-15:
            break
    refined = float((d @ np.exp(ik * t)).real)
    return (refined, t) if refined > value else (value, theta)


def psi_max_reference(c, n: int, gamma: float):
    """(M, angle) of ``psi_max`` as first written: numpy scalars, ``np.argmax`` and ``@``.

    The same grid, curvature screen and Newton steps on the same cblas
    calls, so ``psi_max``, which runs its steps on Python floats, must
    agree with it bit for bit.
    """
    c = np.asarray(c, dtype=np.complex128)
    k = np.arange(1.0, n + 1)
    d = np.exp(1j * gamma) * c[:n] / k
    m = 16 * (n + 1)
    half = np.zeros(m // 2 + 1, dtype=np.complex128)
    half[1 : n + 1] = d
    vals = (m / 2) * np.fft.irfft(half, m)
    h = 2.0 * np.pi / m
    k2, ik = k * k, 1j * k
    j = int(np.argmax(vals))
    best, theta = _newton_peak_reference(d, k, k2, ik, j * h, float(vals[j]), h)
    reach = h * h / 8.0 * float(k2 @ np.abs(d))
    for i in np.flatnonzero(vals > best - reach):
        if i != j:
            value, angle = _newton_peak_reference(d, k, k2, ik, i * h, float(vals[i]), h)
            if value > best:
                best, theta = value, angle
    return best, theta % (2.0 * np.pi)


def gamma_ratios(alpha: float, n: int) -> list:
    """Gamma(1 - 2 alpha + j) / (Gamma(1 - 2 alpha) Gamma(j + 1)) for j = 0..n, by a k-loop.

    Entry j is the running product after multiplying in (k - 2 alpha)/k
    for k = 1..j, one factor at a time, which ``gamma_ratio`` matches bit for bit.
    """
    values = [1.0]
    for k in range(1, n + 1):
        values.append(values[-1] * ((k - 2.0 * alpha) / k))
    return values


def circle(r: float, m: int) -> np.ndarray:
    """The m grid points r exp(2 pi i j / m), built afresh on each call."""
    return r * np.exp(2j * np.pi * np.arange(m) / m)


def eval_circle_folded(s: Series, r: float, m: int) -> np.ndarray:
    """Values on the m-point circle of radius r by the fold that ``Series.eval_circle`` once
    ran for every m: the scaled coefficients zero-padded to a multiple of m, summed modulo m,
    then one inverse FFT of length m."""
    scaled = s.coeffs * (float(r) ** np.arange(s.coeffs.size))
    total = ((scaled.size + m - 1) // m) * m
    buf = np.zeros(total, dtype=np.complex128)
    buf[: scaled.size] = scaled
    return m * np.fft.ifft(buf.reshape(-1, m).sum(axis=0))


def eval_circle_subcircles(s: Series, r: float, m: int) -> np.ndarray:
    """Values on the m-point circle of radius r by one 1-D inverse FFT per sub-circle.

    P is the largest power of two dividing m with L = m / P at least the
    coefficient count (else 1).  Sub-circle a holds the grid points
    j = a + P b, b < L: the scaled coefficients, folded modulo L, times
    exp(2 pi i a k / m), built afresh for each a, go through an unscaled
    inverse FFT of length L.
    """
    scaled = s.coeffs * (float(r) ** np.arange(s.coeffs.size))
    p = m & -m
    while p > 1 and m // p < scaled.size:
        p //= 2
    length = m // p
    buf = np.zeros(((scaled.size + length - 1) // length) * length, dtype=np.complex128)
    buf[: scaled.size] = scaled
    folded = buf.reshape(-1, length).sum(axis=0)
    values = np.empty(m, dtype=np.complex128)
    for a in range(p):
        twiddle = np.exp(2j * np.pi * (a * np.arange(length)) / m)
        values[a::p] = np.fft.ifft(twiddle * folded, norm="forward")
    return values


def spiral_margin_exact(measure: AtomicMeasure, spec, grid) -> float:
    """Minimum over the grid of the margin of the measure's member, from the measure alone.

    The spiral member of the measure has Re(e^{-i gamma} z f'/f) - alpha cos(gamma)
    = (1 - alpha) cos(gamma) Re h, where Re h = sum_j w_j (1 - r^2) / |1 - e^{-i t_j} z|^2
    is the Poisson sum of the atoms.  A convex member's margin is its spiral
    parent's, the Alexander transform z f' being that parent's member, of the
    same (gamma, alpha).
    """
    tilt = np.exp(-1j * np.asarray(measure.angles))[:, None]
    weights = np.asarray(measure.weights)[:, None]
    low = math.inf
    for r in grid.radii:
        poisson = weights * (1.0 - r * r) / np.abs(1.0 - tilt * circle(r, grid.m)) ** 2
        low = min(low, float(poisson.sum(axis=0).min()))
    return (1.0 - spec.alpha) * math.cos(spec.gamma) * low


def chain_replay(measure: AtomicMeasure, spec, n: int, near: float | None = None) -> dict:
    """The derivation chain that chain_trace replays on the measure's member at n, at 40 digits.

    Everything starts from the measure: h_k = 2 sum_j w_j e^{-ik t_j}, the exact
    c_k = (1 - alpha) h_k for k = 1..n, and the member traced, the spiral member
    z exp(e^{i gamma} cos(gamma) sum c_k z^k / k) through a_{n+1} (for a convex kind,
    z f' of its member, the parent with the same (gamma, alpha)).  M is the largest value
    of Re psi at the roots of Re psi' that mpmath.findroot finds in brackets around the
    four best peaks of a dense double grid (M >= 0: Re psi has mean 0).  theta is its
    angle, or ``near`` where Re psi is within 1e-12 of M there: the chain holds at every
    maximum, a symmetric measure ties two, and a double angle resolves a flat maximum only
    to about the square root of an ulp.  Then xi0 = e^{-i theta}, the Milin exponent
    sum_k (|C_k - xi0^k|^2 - 1) / k with C_k = e^{i gamma} cos(gamma) c_k,
    beta = |a_{n+1} - xi0 a_n| and the bound exp(-M alpha cos gamma).  Returns the fields
    of ProofTrace that these name (c, M, xi0, milin_exponent, beta_bound, final_bound) and
    ``a``, a_0..a_{n+1}, each rounded to a double.
    """
    import mpmath

    with mpmath.workdps(40):
        atoms = [(mpmath.mpf(t), mpmath.mpf(w)) for t, w in zip(measure.angles, measure.weights)]
        h = [2 * mpmath.fsum(w * mpmath.expj(-k * t) for t, w in atoms) for k in range(1, n + 1)]
        c = [(1 - mpmath.mpf(spec.alpha)) * hk for hk in h]
        rotation, cos_g = mpmath.expj(spec.gamma), mpmath.cos(spec.gamma)
        big_c = [rotation * cos_g * ck for ck in c]
        # u = f/z = exp(sum C_k z^k / k), by k u_k = sum_{j=1}^k C_j u_{k-j}
        u = [mpmath.mpc(1)]
        for k in range(1, n + 1):
            u.append(mpmath.fsum(big_c[j - 1] * u[k - j] for j in range(1, k + 1)) / k)
        a = [mpmath.mpc(0), *u]
        d = [rotation * ck / k for k, ck in enumerate(c, 1)]

        def re_psi(theta):
            return mpmath.re(mpmath.fsum(dk * mpmath.expj(k * theta) for k, dk in enumerate(d, 1)))

        def slope(theta):
            return -mpmath.fsum(k * mpmath.im(dk * mpmath.expj(k * theta))
                                for k, dk in enumerate(d, 1))

        # a sample at least its neighbours has a maximum of Re psi within a step of it:
        # every half-step where Re psi' falls through 0 brackets a root
        step = 2.0 * math.pi / (64 * (n + 1))
        grid = step * np.arange(64 * (n + 1))
        samples = (np.exp(1j * np.outer(grid, np.arange(1, n + 1))) @ np.array(d, complex)).real
        peaks = (samples >= np.roll(samples, 1)) & (samples >= np.roll(samples, -1))
        roots = []
        for i in sorted(peaks.nonzero()[0], key=lambda i: samples[i])[-4:]:
            ends = [mpmath.mpf(grid[i] + j * step) for j in (-1, 0, 1)]
            for lo, hi in zip(ends, ends[1:]):
                if slope(lo) >= 0 >= slope(hi):
                    roots.append(mpmath.findroot(slope, (lo, hi), solver="anderson"))
        M, theta = max((re_psi(root), root) for root in roots)
        if near is not None and re_psi(mpmath.mpf(near)) >= M - 1e-12 * max(M, 1):
            theta = mpmath.mpf(near)
        xi0 = mpmath.expj(-theta)
        exponent = mpmath.fsum((abs(big_c[k - 1] - xi0**k) ** 2 - 1) / k for k in range(1, n + 1))
        return {
            "c": np.array([complex(x) for x in c]),
            "a": np.array([complex(x) for x in a]),
            "M": float(M),
            "xi0": complex(xi0),
            "milin_exponent": float(exponent),
            "beta_bound": float(abs(a[n + 1] - xi0 * a[n])),
            "final_bound": float(mpmath.exp(-M * spec.alpha * cos_g)),
        }


def horner(s: Series, z: complex) -> complex:
    """Value of the truncated polynomial at one point."""
    return complex(np.polyval(s.coeffs[::-1], z))


def alexander_inverse(g: FunctionSeries) -> FunctionSeries:
    """The f with z f'(z) = g(z), i.e. a_n = b_n / n."""
    c = np.array(g.coeffs)
    c[1:] = c[1:] / np.arange(1, g.order + 1)
    return FunctionSeries(c)


def herglotz_by_atom(measure: AtomicMeasure, order: int) -> np.ndarray:
    """h_0 = 1 and h_n = 2 sum_j w_j exp(-i n t_j), n = 1..order, adding one atom at a time.

    The same products added in the same order as ``herglotz``, so the two agree bit for bit.
    """
    n = np.arange(order + 1)
    total = np.zeros(order + 1, dtype=np.complex128)
    for t, w in zip(measure.angles, measure.weights):
        total = total + w * np.exp(-1j * (t * n))
    h = 2.0 * total
    h[0] = 1.0
    return h


def fixed_measure(seed: int, k: int) -> AtomicMeasure:
    """k atoms from a generator of their own: angles uniform on [0, 2pi), then simplex weights."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, k)
    weights = rng.dirichlet(np.ones(k))
    return AtomicMeasure(tuple(angles), tuple(weights / weights.sum()))


def simplex_min(cost, x0: np.ndarray, steps: np.ndarray, max_evals: int) -> bool:
    """Simplex-reflection minimization calling cost(x) at each point; returns whether it converged.

    The loop ``extremal._simplex_min`` runs as a generator, written as a
    plain function of at most max_evals calls of cost that checks its own
    cap; the package caps each restart in ``extremal._Restart`` instead.
    """
    d = x0.size
    pts = np.vstack([x0] + [x0 + steps[i] * np.eye(d)[i] for i in range(d)])
    vals = np.empty(d + 1)
    evals = 0
    for i in range(d + 1):
        if evals >= max_evals:
            vals[i:] = np.inf
            break
        vals[i] = cost(pts[i])
        evals += 1
    while evals < max_evals:
        idx = np.argsort(vals, kind="stable")
        pts, vals = pts[idx], vals[idx]
        if vals[-1] - vals[0] < SPREAD_TOL:
            return True
        centroid = np.add.reduce(pts[:-1], axis=0) / d
        xr = centroid + (centroid - pts[-1])
        fr = cost(xr)
        evals += 1
        if fr < vals[0]:
            if evals >= max_evals:
                break
            xe = centroid + 2.0 * (centroid - pts[-1])
            fe = cost(xe)
            evals += 1
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            if evals >= max_evals:
                break
            xc = centroid + 0.5 * (pts[-1] - centroid)
            fc = cost(xc)
            evals += 1
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, d + 1):
                    if evals >= max_evals:
                        break
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = cost(pts[i])
                    evals += 1
    return False


def search_in_turn(problem: SearchProblem, on_improve=None) -> SearchResult:
    """The multi-start search with its restarts run one after another, each to the end.

    Every point goes through the objective alone, and the incumbent is
    updated at the evaluation that improves it, so this is the plain
    reading of what ``extremal.search`` reports.
    """
    value = _objective(problem)
    sign = 1.0 if problem.minimize else -1.0
    k = problem.k_atoms
    state = {"evals": 0, "best_cost": math.inf, "best_x": None, "history": []}

    def cost(x):
        c = sign * value(x)
        state["evals"] += 1
        if c < state["best_cost"]:
            state["best_cost"], state["best_x"] = c, np.array(x)
            state["history"].append((state["evals"], sign * c))
            if on_improve is not None:
                on_improve(state["evals"], sign * c)
        return c

    rng = np.random.default_rng(problem.seed)
    share = max(problem.budget // problem.restarts, 1)
    steps = np.concatenate([np.full(k, _STEP_ANGLE), np.full(k, _STEP_WEIGHT)])
    exhausted = False
    for _ in range(problem.restarts):
        x0 = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, k), rng.uniform(0.3, 1.0, k)])
        converged = simplex_min(cost, x0, steps, min(share, problem.budget - state["evals"]))
        exhausted = exhausted or not converged
        if state["evals"] >= problem.budget:
            break
    return SearchResult(
        best_value=sign * state["best_cost"],
        best_measure=AtomicMeasure(*_atoms_from_vector(state["best_x"], k)),
        history=tuple(state["history"]),
        evaluations_used=state["evals"],
        budget_exhausted=exhausted,
    )
