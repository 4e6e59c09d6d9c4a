"""Derivative-free sharpness search over atomic-measure parameter space.

The searcher maximizes a coefficient functional over class members built
from k-atom measures, using multi-start simplex reflection on an
unconstrained parameterization: atom angles live raw in R (wrapped mod
2 pi when a measure is built) and weights are squared then renormalized,
which keeps the simplex constraint implicit.  A bound is corroborated as
sharp when the incumbent approaches it from below; an incumbent past the
bound is a red-alert finding, reported in-band rather than raised.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .classes import (
    BATCH_TERMS, MAX_ATOMS, TWO_PI, AtomicMeasure, ClassSpec, InvalidParams, check_atoms,
    member_builder,
)
from .inequalities import FUNCTIONALS, ON_COEFFICIENTS, check_indices, on_rows

#: Per-restart convergence tolerance on the simplex objective spread.
SPREAD_TOL = 1e-10

#: Initial simplex edge lengths for angle and weight coordinates.
_STEP_ANGLE = 0.5
_STEP_WEIGHT = 0.25

#: Fewest live restarts evaluated as one batch; with fewer, each point is evaluated alone.
#: A stacked recurrence step costs about three single-series steps, so smaller batches
#: lose at large n what they save in per-call overhead (BENCH_lockstep_search.json).
_MIN_BATCH = 4


@dataclass(frozen=True)
class SearchProblem:
    """One sharpness-search instance over k-atom measures."""

    spec: ClassSpec
    n: int
    functional: str = "two_sided_diff"
    m: int | None = None
    k_atoms: int = 2
    budget: int = 5000
    restarts: int = 8
    seed: int = 0
    minimize: bool = False

    def __post_init__(self):
        if self.functional not in FUNCTIONALS:
            raise InvalidParams(f"unknown functional {self.functional!r}")
        check_indices(self.functional, self.n, self.m)
        if not 1 <= self.k_atoms <= MAX_ATOMS:
            raise InvalidParams(f"k_atoms must lie in 1..{MAX_ATOMS}")
        if self.budget < 100 * self.k_atoms:
            raise InvalidParams("budget must be at least 100 * k_atoms")
        if self.restarts < 1:
            raise InvalidParams("restarts must be >= 1")
        if self.n < 1:
            raise InvalidParams("n must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    """Best measure found, with the incumbent history of the whole run."""

    best_value: float
    best_measure: AtomicMeasure
    history: tuple  # (evaluation count, incumbent value) at each improvement
    evaluations_used: int
    budget_exhausted: bool


def _atoms_from_vector(x: np.ndarray, k: int) -> tuple:
    """Checked (angles, weights) of search vectors: x[..., :k] wrapped mod 2pi, x[..., k:] squared.

    An angle wraps by Python's float ``%`` (``np.remainder``), and a result
    of exactly 2pi, which a tiny negative angle rounds to, folds to 0, so
    every angle lands in [0, 2pi).  The squared weights are normalized to
    sum 1; all-zero weights fall back to uniform ones.  The rows of a 2-D x
    hold a batch of vectors, each mapped as it would be alone.  Only a
    non-finite coordinate (a NaN angle) or overflowing squares (NaN or zero
    weights) can fail :func:`check_atoms`, and only they make the angle and
    total sums NaN or inf, so only then does it run, to raise.
    """
    angles = np.remainder(x[..., :k], TWO_PI)
    angles[angles >= TWO_PI] = 0.0
    w = x[..., k:] ** 2
    total = np.add.reduce(w, -1, keepdims=True)
    if min(total.flat) <= 1e-300:
        tiny = total <= 1e-300
        w, total = np.where(tiny, 1.0, w), np.where(tiny, float(k), total)
    weights = w / total
    if not angles.sum() + total.sum() < math.inf:
        check_atoms(angles, weights)
    return angles, weights


def _objective(problem: SearchProblem):
    """The functional at a search vector, or the list of its values at each row of a batch."""
    n, m, k = problem.n, problem.m, problem.k_atoms
    functional = ON_COEFFICIENTS[problem.functional]
    # every functional reads at most a_{n+1}
    build = member_builder(problem.spec, n + 1)

    def value(x: np.ndarray):
        a = build(*_atoms_from_vector(x, k))
        if a.ndim == 1:
            return functional(lambda j: abs(a.item(j)), n, m)
        return on_rows(problem.functional, a, (n,), m)[0].tolist()

    return value


def _simplex_min(x0: np.ndarray, steps: np.ndarray):
    """Simplex-reflection minimization, as a generator of the points to evaluate.

    Yields each point it needs and is sent back its cost; it returns True
    once the spread converges.  It sets no cap: its caller stops sending.
    """
    d = x0.size
    pts = np.vstack([x0] + [x0 + steps[i] * np.eye(d)[i] for i in range(d)])
    vals = np.empty(d + 1)
    for i in range(d + 1):
        vals[i] = yield pts[i]
    while True:
        idx = vals.argsort(kind="stable")
        pts, vals = pts[idx], vals[idx]
        if vals[-1] - vals[0] < SPREAD_TOL:
            return True
        centroid = np.add.reduce(pts[:-1], axis=0) / d
        xr = centroid + (centroid - pts[-1])
        fr = yield xr
        if fr < vals[0]:
            xe = centroid + 2.0 * (centroid - pts[-1])
            fe = yield xe
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (pts[-1] - centroid)
            fc = yield xc
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, d + 1):
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = yield pts[i]


class _Restart:
    """One restart's simplex, its pending point, and its record lows.

    ``lows`` and ``low_evals`` hold the cost and the evaluation count
    within the restart at each strict new low of the restart's own costs
    that is not replayed yet, and ``best_x`` the point of its lowest cost:
    an evaluation improves the whole search's incumbent only if it is such
    a low, so these and the evaluation count are all the replay reads.
    Typed arrays keep a low to 16 bytes.  The restart stops at its
    ``share``-th cost, which the simplex is not sent, unless the simplex
    has returned before.
    """

    def __init__(self, simplex, share: int):
        self._simplex, self._share = simplex, share
        self.point = next(simplex)
        self.evals = 0
        self.low, self.lows, self.low_evals = math.inf, array("d"), array("q")
        self.best_x = None
        self.converged = None  # True once the simplex has returned, False at the share

    def send(self, cost: float) -> bool:
        """Record the pending point's cost and move on; returns whether the restart is done."""
        self.evals += 1
        if cost < self.low:
            self.low = cost
            self.lows.append(cost)
            self.low_evals.append(self.evals)
            self.best_x = np.array(self.point)
        if self.evals == self._share:
            self.converged = False
            return True
        try:
            self.point = self._simplex.send(cost)
        except StopIteration as stop:
            self.converged = stop.value
            return True
        return False


def search(problem: SearchProblem, on_improve=None) -> SearchResult:
    """Run the multi-start search; deterministic for a fixed seed.

    The budget is the total evaluation count and a hard cap: each restart
    may spend budget // restarts evaluations (at least 1), so only the
    first min(restarts, budget) restarts run, and a restart that hits its
    share before the simplex spread converges marks the result
    budget_exhausted.  The restarts advance side by side: each round
    evaluates the pending point of every live restart, in one batch while
    at least ``_MIN_BATCH`` are live and each point alone while fewer are.
    A restart starts, in restart order, when a slot of the ``BATCH_TERMS``
    window frees.  Their costs are replayed in restart order, so the
    result and every ``on_improve`` call are bit for bit those of running
    the restarts one after another.
    ``on_improve`` is called as (evaluation count, incumbent value) at
    each improvement, which is how the CLI streams progress; a restart's
    improvements reach it once every earlier restart has finished.
    """
    objective = _objective(problem)
    sign = 1.0 if problem.minimize else -1.0
    k = problem.k_atoms
    rng = np.random.default_rng(problem.seed)
    share = max(problem.budget // problem.restarts, 1)
    steps = np.concatenate([np.full(k, _STEP_ANGLE), np.full(k, _STEP_WEIGHT)])
    starts = (  # drawn from rng in restart order, as each restart starts
        np.concatenate([rng.uniform(0.0, 2.0 * np.pi, k), rng.uniform(0.3, 1.0, k)])
        for _ in range(min(problem.restarts, problem.budget))
    )
    queue = deque()  # the restarts started and not yet replayed, in restart order

    def start(count: int) -> list:
        """The next ``count`` restarts, fewer once all have started."""
        runs = [_Restart(_simplex_min(x0, steps), share) for x0 in islice(starts, count)]
        queue.extend(runs)
        return runs

    live = start(max(1, BATCH_TERMS // (k * (problem.n + 1))))
    # without a cost below +inf (every value NaN, or inf when minimizing), no history, a NaN
    # best value and the first restart's start point
    best_cost, best_x, history, evals, exhausted = math.inf, np.array(live[0].point), [], 0, False
    while live:
        points = [run.point for run in live]
        costs = objective(np.array(points)) if len(live) >= _MIN_BATCH else map(objective, points)
        done = sum([run.send(sign * value) for run, value in zip(live, costs)])
        if done:
            live = [run for run in live if run.converged is None] + start(done)
        # replay the record lows of each restart whose predecessors have all finished
        while queue:
            run = queue[0]
            if run.lows:
                for count, c in zip(run.low_evals, run.lows):
                    if c < best_cost:
                        best_cost, best_x = c, run.best_x
                        history.append((evals + count, sign * c))
                        if on_improve is not None:
                            on_improve(evals + count, sign * c)
                del run.lows[:], run.low_evals[:]
            if run.converged is None:
                break
            queue.popleft()
            evals += run.evals
            exhausted = exhausted or not run.converged

    return SearchResult(
        best_value=sign * best_cost if history else math.nan,
        best_measure=AtomicMeasure(*_atoms_from_vector(best_x, k)),
        history=tuple(history),
        evaluations_used=evals,
        budget_exhausted=exhausted,
    )
